// Package stats is a panicfree-rule fixture: library code must return
// errors; Must* wrappers and waived sites pass.
package stats

import (
	"errors"
	"fmt"
	"time"
)

type Histogram struct{ bins []int } // want deadfield

func badPanicString(nbins int) *Histogram {
	if nbins <= 0 {
		panic("stats: invalid geometry") // want panicfree
	}
	return &Histogram{bins: make([]int, nbins)}
}

func badPanicErr() {
	panic(errors.New("boom")) // want panicfree
}

func okError(nbins int) (*Histogram, error) {
	if nbins <= 0 {
		return nil, fmt.Errorf("stats: invalid geometry %d", nbins)
	}
	return &Histogram{bins: make([]int, nbins)}, nil
}

// MustHistogram follows the Must* convention: panic-on-error for constant
// arguments, exempt from the rule.
func MustHistogram(nbins int) *Histogram { // want deadexport
	h, err := okError(nbins)
	if err != nil {
		panic(err)
	}
	return h
}

func mustInternal(cond bool) {
	if !cond {
		panic("unreachable")
	}
}

func waived() {
	//lint:ignore panicfree fixture demonstrating the escape hatch
	panic("waived")
}

// TimedMean is reached from internal/sim (sim.Profile). stats is not itself
// a simulation package, so the direct simtime rule stays quiet here — the
// interprocedural taint analysis flags the wall-clock read with the call
// chain in the message.
func TimedMean(xs []float64) float64 {
	start := time.Now() // want simtime
	_ = start
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
