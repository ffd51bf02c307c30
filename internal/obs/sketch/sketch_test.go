package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// zipfStream generates a deterministic, heavily skewed key stream: the
// workload shape the popularity sketches exist for. Keys are 0..n-1 with
// frequency ∝ 1/(rank+2)^1.1.
func zipfStream(t *testing.T, seed int64, keys, count int) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 2, uint64(keys-1))
	out := make([]uint64, count)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

// exactCounts tallies the stream exactly, for error-bound comparisons.
func exactCounts(stream []uint64) map[uint64]int64 {
	m := make(map[uint64]int64)
	for _, k := range stream {
		m[k]++
	}
	return m
}

// TestSpaceSavingErrorBound is the house accuracy proof: on a seeded zipf
// trace, every tracked entry's count brackets the exact count within the
// recorded per-entry error, the per-entry error respects the N/k bound, and
// every key with true frequency above N/k is tracked.
func TestSpaceSavingErrorBound(t *testing.T) {
	const k, n = 64, 200000
	stream := zipfStream(t, 42, 4096, n)
	exact := exactCounts(stream)
	ss := NewSpaceSaving(k)
	for _, key := range stream {
		ss.UpdateEx(key, 1, Exemplar{})
	}
	if ss.N() != n {
		t.Fatalf("N() = %d, want %d", ss.N(), n)
	}
	bound := int64(n / k)
	tracked := make(map[uint64]bool)
	for _, e := range ss.Top() {
		tracked[e.Key] = true
		if e.Err > bound {
			t.Errorf("key %d: err %d exceeds N/k bound %d", e.Key, e.Err, bound)
		}
		truth := exact[e.Key]
		if e.Count < truth {
			t.Errorf("key %d: count %d undercounts exact %d", e.Key, e.Count, truth)
		}
		if e.Count-e.Err > truth {
			t.Errorf("key %d: count-err %d overshoots exact %d (err bound broken)",
				e.Key, e.Count-e.Err, truth)
		}
	}
	for key, c := range exact {
		if c > bound && !tracked[key] {
			t.Errorf("heavy hitter %d (count %d > %d) not tracked", key, c, bound)
		}
	}
}

// TestSpaceSavingExactBelowCapacity pins the no-eviction regime: with
// distinct keys ≤ k the summary is an exact frequency table with zero
// error — the regime the cross-pipeline parity suites rely on.
func TestSpaceSavingExactBelowCapacity(t *testing.T) {
	stream := zipfStream(t, 7, 50, 10000)
	exact := exactCounts(stream)
	ss := NewSpaceSaving(64)
	for _, key := range stream {
		ss.UpdateEx(key, 1, Exemplar{})
	}
	top := ss.Top()
	if len(top) != len(exact) {
		t.Fatalf("tracked %d keys, want %d", len(top), len(exact))
	}
	for _, e := range top {
		if e.Err != 0 {
			t.Errorf("key %d: err %d in exact regime", e.Key, e.Err)
		}
		if e.Count != exact[e.Key] {
			t.Errorf("key %d: count %d, exact %d", e.Key, e.Count, exact[e.Key])
		}
	}
}

// TestSpaceSavingDeterministic replays the same stream twice and requires
// byte-identical summaries (the eviction tie-break is a total order).
func TestSpaceSavingDeterministic(t *testing.T) {
	stream := zipfStream(t, 99, 2048, 50000)
	run := func() []Entry {
		ss := NewSpaceSaving(16)
		for i, key := range stream {
			ss.UpdateEx(key, 1, Exemplar{TraceID: fmt.Sprintf("t%04x", i%257), Req: int64(i)})
		}
		return ss.Top()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("identical streams produced different summaries:\n%v\n%v", a, b)
	}
}

// TestSpaceSavingEvictionChurn hammers a capacity-1 summary with distinct
// keys: every update evicts, counts telescope, and the final entry's error
// brackets the truth.
func TestSpaceSavingEvictionChurn(t *testing.T) {
	ss := NewSpaceSaving(1)
	for i := uint64(0); i < 100; i++ {
		ss.UpdateEx(i, 1, Exemplar{})
	}
	top := ss.Top()
	if len(top) != 1 {
		t.Fatalf("tracked %d keys at capacity 1", len(top))
	}
	e := top[0]
	if e.Key != 99 || e.Count != 100 || e.Err != 99 {
		t.Fatalf("churn entry = %+v, want key=99 count=100 err=99", e)
	}
}

// TestQuantileRelativeError is the quantile accuracy proof: on a seeded
// log-normal-ish latency stream, every checked quantile is within the
// configured relative error of the exact order statistic.
func TestQuantileRelativeError(t *testing.T) {
	const alpha, n = 0.02, 50000
	rng := rand.New(rand.NewSource(21))
	vals := make([]float64, n)
	q := NewQuantile(alpha, 0)
	for i := range vals {
		// Latencies spanning ~4 orders of magnitude: sub-ms to multi-second.
		v := math.Exp(rng.NormFloat64()*1.4 + 2.5)
		vals[i] = v
		q.ObserveEx(v, Exemplar{})
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		truth := vals[int(math.Ceil(p*float64(n)))-1]
		got := q.Quantile(p)
		if rel := math.Abs(got-truth) / truth; rel > alpha {
			t.Errorf("p%g: got %.4f, exact %.4f, relative error %.4f > α=%g",
				p*100, got, truth, rel, alpha)
		}
	}
	if q.Count() != n {
		t.Errorf("Count() = %d, want %d", q.Count(), n)
	}
	if q.Min() != vals[0] || q.Max() != vals[n-1] {
		t.Errorf("min/max = %v/%v, want %v/%v", q.Min(), q.Max(), vals[0], vals[n-1])
	}
}

// TestQuantileZeroAndEmpty pins the edges: empty sketches answer NaN, the
// zero bucket absorbs non-positive values and answers 0 at low quantiles.
func TestQuantileZeroAndEmpty(t *testing.T) {
	q := NewQuantile(0.01, 0)
	if !math.IsNaN(q.Quantile(0.5)) || !math.IsNaN(q.Min()) {
		t.Fatal("empty sketch must answer NaN")
	}
	q.ObserveEx(0, Exemplar{})
	q.ObserveEx(-5, Exemplar{})
	q.ObserveEx(10, Exemplar{})
	if got := q.Quantile(0.25); got != 0 {
		t.Errorf("p25 over {0,-5,10} = %v, want 0 (zero bucket)", got)
	}
	if got := q.Quantile(1); math.Abs(got-10)/10 > 0.01 {
		t.Errorf("p100 = %v, want ≈10", got)
	}
	if q.Min() != -5 || q.Max() != 10 {
		t.Errorf("min/max = %v/%v, want -5/10", q.Min(), q.Max())
	}
}

// TestQuantileCollapseBounded caps the bucket map and checks the collapse
// path keeps the count exact and the extreme tail accurate: collapse folds
// the *lowest* buckets first, so quantiles landing in the retained top
// buckets keep the α guarantee even when mid-range resolution is gone.
func TestQuantileCollapseBounded(t *testing.T) {
	const maxBuckets = 32
	q := NewQuantile(0.01, maxBuckets)
	rng := rand.New(rand.NewSource(41))
	vals := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := math.Exp(rng.NormFloat64() * 3)
		vals = append(vals, v)
		q.ObserveEx(v, Exemplar{})
	}
	if q.occupied > maxBuckets {
		t.Fatalf("%d buckets exceed the %d cap", q.occupied, maxBuckets)
	}
	if q.Count() != int64(len(vals)) {
		t.Fatalf("collapse lost observations: %d != %d", q.Count(), len(vals))
	}
	sort.Float64s(vals)
	truth := vals[int(math.Ceil(0.999*float64(len(vals))))-1]
	if got := q.Quantile(0.999); math.Abs(got-truth)/truth > 0.01 {
		t.Errorf("p99.9 after collapse = %v, exact %v (retained tail must stay accurate)", got, truth)
	}
	// Quantile answers stay monotone non-decreasing through the collapsed region.
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.05 {
		v := q.Quantile(p)
		if v < prev {
			t.Fatalf("quantile not monotone at p=%.2f: %v < %v", p, v, prev)
		}
		prev = v
	}
}

// TestExemplarRule pins the replacement total order: larger request index
// wins, trace ID breaks ties, invalid never replaces valid.
func TestExemplarRule(t *testing.T) {
	a := Exemplar{TraceID: "aa", Req: 5}
	b := Exemplar{TraceID: "bb", Req: 9}
	if !b.better(a) || a.better(b) {
		t.Fatal("larger Req must win")
	}
	c := Exemplar{TraceID: "cc", Req: 9}
	if !c.better(b) || b.better(c) {
		t.Fatal("trace ID must break Req ties")
	}
	if (Exemplar{}).better(a) {
		t.Fatal("invalid exemplar must never replace a valid one")
	}
	if !a.better(Exemplar{}) {
		t.Fatal("valid exemplar must replace the zero value")
	}
}

// TestSpaceSavingExemplars: exemplars ride updates, keep the freshest
// sample per key, and die with evicted entries.
func TestSpaceSavingExemplars(t *testing.T) {
	ss := NewSpaceSaving(2)
	ss.UpdateEx(1, 1, Exemplar{TraceID: "t1", Req: 1})
	ss.UpdateEx(1, 1, Exemplar{TraceID: "t2", Req: 2})
	ss.UpdateEx(2, 1, Exemplar{})
	top := ss.Top()
	if top[0].Ex.TraceID != "t2" {
		t.Fatalf("key 1 exemplar = %q, want freshest t2", top[0].Ex.TraceID)
	}
	if top[1].Ex.Valid() {
		t.Fatalf("key 2 never sampled, exemplar = %+v", top[1].Ex)
	}
	// Evicting key 2 replaces it (and its empty exemplar) with key 3's.
	ss.UpdateEx(3, 1, Exemplar{TraceID: "t3", Req: 3})
	for _, e := range ss.Top() {
		if e.Key == 3 && e.Ex.TraceID != "t3" {
			t.Fatalf("evicting newcomer lost its exemplar: %+v", e)
		}
	}
}
