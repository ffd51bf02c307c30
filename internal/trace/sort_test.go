package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"starcdn/internal/cache"
)

// referenceSort is the stable comparison sort by < that Sort must agree with.
func referenceSort(rs []Request) {
	slices.SortStableFunc(rs, func(a, b Request) int {
		switch {
		case a.TimeSec < b.TimeSec:
			return -1
		case b.TimeSec < a.TimeSec:
			return 1
		}
		return 0
	})
}

// checkSortedLikeReference sorts a copy of in with Sort and with
// referenceSort and fails unless every Request matches. Object carries the
// input position, so a stability break shows up there.
func checkSortedLikeReference(t *testing.T, in []Request) {
	t.Helper()
	want := slices.Clone(in)
	referenceSort(want)
	tr := &Trace{Requests: slices.Clone(in)}
	backing := tr.Requests
	tr.Sort()
	if len(tr.Requests) > 0 && &tr.Requests[0] != &backing[0] {
		t.Fatal("Sort moved the requests to a new backing array")
	}
	for i := range want {
		if tr.Requests[i] != want[i] {
			t.Fatalf("position %d of %d: got %+v, want %+v", i, len(in), tr.Requests[i], want[i])
		}
	}
}

func TestSortMatchesStableReference(t *testing.T) {
	times := []struct {
		name string
		at   func(rng *rand.Rand, i, n int) float64
	}{
		{"uniform", func(rng *rand.Rand, _, _ int) float64 { return rng.Float64() * 432000 }},
		{"ties", func(rng *rand.Rand, _, _ int) float64 { return float64(rng.Intn(8)) * 0.25 }},
		{"negative", func(rng *rand.Rand, _, _ int) float64 {
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
		}},
		{"signed-zero", func(rng *rand.Rand, _, _ int) float64 {
			return [...]float64{math.Copysign(0, -1), 0, -1, 1}[rng.Intn(4)]
		}},
		{"subnormal", func(rng *rand.Rand, _, _ int) float64 {
			return float64(rng.Intn(64)-32) * math.SmallestNonzeroFloat64
		}},
		{"near-2^53", func(rng *rand.Rand, _, _ int) float64 {
			return 1<<53 + float64(rng.Intn(64)-32)
		}},
		{"sorted", func(_ *rand.Rand, i, _ int) float64 { return float64(i) * 0.001 }},
		{"reversed", func(_ *rand.Rand, i, n int) float64 { return float64(n-i) * 0.001 }},
	}
	for _, tc := range times {
		for _, n := range []int{0, 1, 2, 3, 65537, 200000} {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			in := make([]Request, n)
			for i := range in {
				in[i] = Request{TimeSec: tc.at(rng, i, n), Object: cache.ObjectID(i), Size: int64(1 + i%7), Location: i % 3}
			}
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) { checkSortedLikeReference(t, in) })
		}
	}
}
