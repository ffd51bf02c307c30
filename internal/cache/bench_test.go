package cache

import (
	"math/rand"
	"testing"
)

// benchSink keeps the compiler from dropping a measured call.
var benchSink bool

// BenchmarkPolicy prices each cache call of the request ladder on a full
// cache of 1<<14 one-byte objects: a Get hit on a Zipf-popular resident (the
// owner fetch that hits), a Contains miss (a relay probe of an absent
// object), and an Admit of a new object, which evicts one (the ground path).
func BenchmarkPolicy(b *testing.B) {
	const capacity = 1 << 14
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.1, 1, capacity-1)
	hot := make([]ObjectID, 1<<16)
	for i := range hot {
		hot[i] = ObjectID(zipf.Uint64())
	}
	ops := []struct {
		name string
		op   func(p Policy, i int) bool
	}{
		{"get-hit", func(p Policy, i int) bool { return p.Get(hot[i&(len(hot)-1)]) }},
		{"probe-miss", func(p Policy, i int) bool { return p.Contains(capacity + hot[i&(len(hot)-1)]) }},
		{"admit-evict", func(p Policy, i int) bool { return p.Admit(capacity+ObjectID(i), 1) == nil }},
	}
	for _, kind := range allKinds {
		for _, o := range ops {
			b.Run(string(kind)+"/"+o.name, func(b *testing.B) {
				p := MustNew(kind, capacity)
				for id := ObjectID(0); id < capacity; id++ {
					_ = p.Admit(id, 1)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink = o.op(p, i)
				}
			})
		}
	}
}
