package orbit

import (
	"testing"

	"starcdn/internal/geo"
)

func BenchmarkSubSatellitePoint(b *testing.B) {
	c := MustNew(DefaultStarlinkShell())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.SubSatellitePoint(SatID(i%c.NumSlots()), float64(i))
	}
}

func BenchmarkVisibleFrom(b *testing.B) {
	c := MustNew(DefaultStarlinkShell())
	ny := geo.NewPoint(40.713, -74.006)
	buf := make([]SatID, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.VisibleFrom(buf[:0], ny, float64(i%5700))
	}
}

// BenchmarkSnapshot is the per-epoch cost every user shares: one propagation
// of the 1,296-slot shell.
func BenchmarkSnapshot(b *testing.B) {
	c := MustNew(DefaultStarlinkShell())
	snap := c.NewSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Update(float64(i % 5700))
	}
}

// BenchmarkSnapshotVisibleFrom is the per-user cost left once the snapshot is
// taken: the band prefilter over every satellite, the exact test on survivors.
func BenchmarkSnapshotVisibleFrom(b *testing.B) {
	c := MustNew(DefaultStarlinkShell())
	ny := geo.NewPoint(40.713, -74.006)
	snap := c.NewSnapshot()
	snap.Update(0)
	buf := make([]SatID, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = snap.VisibleFrom(buf[:0], ny)
	}
}
