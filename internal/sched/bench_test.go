package sched

import "testing"

// BenchmarkSchedRecompute is one scheduler epoch for the paper's nine cities
// per iteration — what sim.Run pays 720 times on a three-hour trace.
//
//	cold — every epoch is new to the constellation's timeline: one propagation
//	       of all 1,296 slots, nine band sweeps, the row stored. What the first
//	       run on a constellation pays. The arenas grow by doubling, so
//	       allocs/op is 0 amortised, not exact.
//	warm — the 720 epochs of a run, over and over, on a timeline that holds
//	       them: one lock, the row's ~11 ids per city cut to the active ones,
//	       the seeded pick. What every later run pays. Exactly 0 allocs/op and
//	       0 B/op.
func BenchmarkSchedRecompute(b *testing.B) {
	b.Run("cold", func(b *testing.B) { benchRecompute(b, false) })
	b.Run("warm", func(b *testing.B) { benchRecompute(b, true) })
}

func benchRecompute(b *testing.B, warm bool) {
	const runEpochs = 720
	c, users := setup(b)
	c.ApplyOutageMask(126, 42)
	s, err := New(c, users, 0, 42)
	if err != nil {
		b.Fatal(err)
	}
	if warm {
		for e := 0; e < runEpochs; e++ {
			s.FirstContact(0, float64(e)*DefaultEpochSec)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i
		if warm {
			e = i % runEpochs
		}
		s.FirstContact(0, float64(e)*DefaultEpochSec)
	}
}
