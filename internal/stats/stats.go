// Package stats provides the small statistics toolkit used by the StarCDN
// experiment harness: online summaries, empirical CDFs, histograms, and
// table-formatting helpers that render the paper's figures as text series.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Summary accumulates count/mean/variance/min/max online (Welford's method).
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the population variance, or 0 with fewer than two observations.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// String implements fmt.Stringer.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// CDF is an empirical cumulative distribution over collected samples.
type CDF struct {
	xs     []float64
	sorted bool
}

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.xs = append(c.xs, x)
	c.sorted = false
}

// Grow reserves room for n more samples, so a caller that knows its sample
// count pays one allocation instead of repeated doubling.
func (c *CDF) Grow(n int) { c.xs = slices.Grow(c.xs, n) }

// N returns the sample count.
func (c *CDF) N() int { return len(c.xs) }

func (c *CDF) sortIfNeeded() {
	if !c.sorted {
		sort.Float64s(c.xs)
		c.sorted = true
	}
}

// Quantile returns the q-th quantile (q in [0,1]) using nearest-rank
// interpolation. It returns 0 with no samples.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	c.sortIfNeeded()
	if q <= 0 {
		return c.xs[0]
	}
	if q >= 1 {
		return c.xs[len(c.xs)-1]
	}
	pos := q * float64(len(c.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.xs[lo]
	}
	frac := pos - float64(lo)
	return c.xs[lo]*(1-frac) + c.xs[hi]*frac
}

// Median returns the 50th percentile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Histogram is a fixed-bin histogram over [min, max).
type Histogram struct {
	min, max float64
	bins     []int
	total    int
}

// MustNewHistogram returns a histogram with nbins bins over [min, max).
// It panics if nbins <= 0 or max <= min: histogram geometry is a programmer
// decision with constant arguments, not runtime input (hence the Must
// convention rather than an error return).
func MustNewHistogram(min, max float64, nbins int) *Histogram {
	if nbins <= 0 || max <= min {
		panic("stats: invalid histogram geometry")
	}
	return &Histogram{min: min, max: max, bins: make([]int, nbins)}
}

// Add records one observation; one outside [min, max) counts toward the
// total only.
func (h *Histogram) Add(x float64) {
	h.total++
	if x >= h.min && x < h.max {
		i := int((x - h.min) / (h.max - h.min) * float64(len(h.bins)))
		if i == len(h.bins) { // guard against float rounding at the edge
			i--
		}
		h.bins[i]++
	}
}

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// Fraction returns the fraction of all observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.bins[i]) / float64(h.total)
}

// Series is a labelled (x, y) series used to emit figure data as text.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders one or more series sharing the same X axis as an aligned
// text table with the given x-axis label. Series with mismatched lengths are
// padded with blanks.
func Table(xLabel string, series ...Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", xLabel)
	maxLen := 0
	for _, s := range series {
		fmt.Fprintf(&b, "%16s", s.Name)
		if len(s.X) > maxLen {
			maxLen = len(s.X)
		}
	}
	b.WriteByte('\n')
	for i := 0; i < maxLen; i++ {
		wrote := false
		for si, s := range series {
			if si == 0 {
				if i < len(s.X) {
					fmt.Fprintf(&b, "%-14.6g", s.X[i])
				} else {
					fmt.Fprintf(&b, "%-14s", "")
				}
				wrote = true
			}
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%16.6g", s.Y[i])
			} else {
				fmt.Fprintf(&b, "%16s", "")
			}
		}
		if wrote {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Pct returns 100*a/b, or 0 when b is 0.
func Pct(a, b float64) float64 { return 100 * Ratio(a, b) }
