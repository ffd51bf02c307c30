package sched

import "testing"

// BenchmarkSchedRecompute is one scheduler epoch for the paper's nine cities
// per iteration — the cost sim.Run pays 720 times on a three-hour trace. It
// must stay at 0 allocs/op: the snapshot and the visibility buffer are reused.
func BenchmarkSchedRecompute(b *testing.B) {
	c, users := setup(b)
	c.ApplyOutageMask(126, 42)
	s, err := New(c, users, 0, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FirstContact(0, float64(i)*DefaultEpochSec)
	}
}
