// engine.go seeds the interprocedural taint fixture: Run and Profile are
// simulation entry points, so every function they transitively reach —
// fixture/simutil outside internal/, internal/stats inside it — must be
// free of wall-clock reads and global randomness. The findings land at the
// offending call sites in those packages, not here.
package sim

import (
	"fixture/internal/stats"
	"fixture/simutil"
)

// Run drives the per-step cost model in fixture/simutil.
func Run(steps int) float64 {
	total := 0.0
	for i := 0; i < steps; i++ {
		total += simutil.StepCost(i)
	}
	return total
}

// Profile aggregates through internal/stats.
func Profile(xs []float64) float64 {
	return stats.TimedMean(xs)
}
