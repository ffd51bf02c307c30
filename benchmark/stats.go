package main

import "starcdn/internal/stats"

// quantile returns the q-quantile of xs (0 for an empty sample) without
// reordering xs.
func quantile(xs []float64, q float64) float64 {
	var c stats.CDF
	for _, x := range xs {
		c.Add(x)
	}
	return c.Quantile(q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
