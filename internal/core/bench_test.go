package core

import (
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/orbit"
	"starcdn/internal/topo"
)

func benchScheme(b *testing.B, l int) *HashScheme {
	b.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		b.Fatal(err)
	}
	h, err := NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), l)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func BenchmarkBucketOf(b *testing.B) {
	h := benchScheme(b, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.BucketOf(cache.ObjectID(i))
	}
}

func BenchmarkNearestOwner(b *testing.B) {
	h := benchScheme(b, 9)
	n := h.Grid().Constellation().NumSlots()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.NearestOwner(orbit.SatID(i%n), BucketID(i%9))
	}
}

func BenchmarkServingOwnerWithOutage(b *testing.B) {
	h := benchScheme(b, 9)
	c := h.Grid().Constellation()
	c.ApplyOutageMask(126, 42)
	n := c.NumSlots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServingOwner(orbit.SatID(i%n), BucketID(i%9), nil)
	}
}
