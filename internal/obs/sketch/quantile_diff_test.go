package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refQuantile is the naive reference the dense-window Quantile is checked
// against: one map entry per occupied bucket, a sort for every walk.
type refQuantile struct {
	gamma, lg  float64
	maxBuckets int
	n          int64
	sum        float64
	min, max   float64
	zero       int64
	zeroEx     Exemplar
	buckets    map[int]*QBucket
}

func newRefQuantile(alpha float64, maxBuckets int) *refQuantile {
	gamma := (1 + alpha) / (1 - alpha)
	return &refQuantile{gamma: gamma, lg: math.Log(gamma), maxBuckets: maxBuckets,
		min: math.Inf(1), max: math.Inf(-1), buckets: map[int]*QBucket{}}
}

func (r *refQuantile) index(x float64) int {
	return int(math.Ceil(math.Log(math.Min(x, math.MaxFloat64)) / r.lg))
}

func (r *refQuantile) value(idx int) float64 {
	return 2 * math.Pow(r.gamma, float64(idx)) / (r.gamma + 1)
}

func (r *refQuantile) add(idx int, count int64, ex Exemplar) {
	b := r.buckets[idx]
	if b == nil {
		b = &QBucket{Index: idx}
		r.buckets[idx] = b
	}
	b.Count += count
	if ex.better(b.Ex) {
		b.Ex = ex
	}
}

func (r *refQuantile) observe(x float64, ex Exemplar) {
	if math.IsNaN(x) {
		return
	}
	r.n++
	r.sum += x
	r.min = math.Min(r.min, x)
	r.max = math.Max(r.max, x)
	if x <= minIndexable {
		r.zero++
		if ex.better(r.zeroEx) {
			r.zeroEx = ex
		}
		return
	}
	r.add(r.index(x), 1, ex)
	r.collapse()
}

func (r *refQuantile) asc() []QBucket {
	out := make([]QBucket, 0, len(r.buckets))
	for _, b := range r.buckets {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

func (r *refQuantile) collapse() {
	for len(r.buckets) > r.maxBuckets {
		bs := r.asc()
		next := r.buckets[bs[1].Index]
		next.Count += bs[0].Count
		if bs[0].Ex.better(next.Ex) {
			next.Ex = bs[0].Ex
		}
		delete(r.buckets, bs[0].Index)
	}
}

func (r *refQuantile) merge(o *refQuantile) {
	if o.n == 0 {
		return
	}
	r.n += o.n
	r.sum += o.sum
	r.min = math.Min(r.min, o.min)
	r.max = math.Max(r.max, o.max)
	r.zero += o.zero
	if o.zeroEx.better(r.zeroEx) {
		r.zeroEx = o.zeroEx
	}
	for _, ob := range o.asc() {
		idx := ob.Index
		if o.gamma != r.gamma {
			idx = r.index(o.value(ob.Index))
		}
		r.add(idx, ob.Count, ob.Ex)
	}
	r.collapse()
}

// at is the single-quantile walk over bs = r.asc(): estimate and bucket
// exemplar.
func (r *refQuantile) at(bs []QBucket, q float64) (float64, Exemplar) {
	if r.n == 0 {
		return math.NaN(), Exemplar{}
	}
	q = math.Max(0, math.Min(1, q))
	target := int64(math.Ceil(q * float64(r.n)))
	if target < 1 {
		target = 1
	}
	cum := r.zero
	if cum >= target {
		return 0, r.zeroEx
	}
	for _, b := range bs {
		cum += b.Count
		if cum >= target {
			return r.value(b.Index), b.Ex
		}
	}
	panic("bucket counts do not sum to n")
}

// sameFloat is == that also equates NaN with NaN.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// checkAgainstRef compares every observable of q with the reference.
func checkAgainstRef(t *testing.T, step int, what string, q *Quantile, r *refQuantile) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s", step, what, fmt.Sprintf(format, args...))
	}
	bs, zero, zeroEx := q.Buckets()
	want := r.asc()
	if !reflect.DeepEqual(bs, want) {
		fail("buckets = %v, reference %v", bs, want)
	}
	if zero != r.zero || zeroEx != r.zeroEx || q.ZeroExemplar() != r.zeroEx {
		fail("zero bucket = %d/%v, reference %d/%v", zero, zeroEx, r.zero, r.zeroEx)
	}
	if len(bs) > r.maxBuckets {
		fail("%d buckets exceed the cap %d", len(bs), r.maxBuckets)
	}
	wantMin, wantMax := r.min, r.max
	if r.n == 0 {
		wantMin, wantMax = math.NaN(), math.NaN()
	}
	if q.Count() != r.n || !sameFloat(q.Sum(), r.sum) || !sameFloat(q.Min(), wantMin) || !sameFloat(q.Max(), wantMax) {
		fail("count/sum/min/max = %d/%v/%v/%v, reference %d/%v/%v/%v",
			q.Count(), q.Sum(), q.Min(), q.Max(), r.n, r.sum, wantMin, wantMax)
	}
	for _, p := range []float64{-1, 0, 0.01, 0.5, 0.9, 0.99, 1, 2} {
		wv, wex := r.at(want, p)
		if got := q.Quantile(p); !sameFloat(got, wv) {
			fail("Quantile(%g) = %v, reference %v", p, got, wv)
		}
		if ex, ok := q.ExemplarNear(p); ex != wex || ok != wex.Valid() {
			fail("ExemplarNear(%g) = %v/%v, reference %v", p, ex, ok, wex)
		}
	}
	// One At walk equals the six single calls, in ascending and in
	// non-ascending order, and with either destination left out.
	for _, qs := range [][]float64{{0.5, 0.9, 0.99}, {0.99, 0.5, 0.9}} {
		vals, exs := make([]float64, len(qs)), make([]Exemplar, len(qs))
		q.At(qs, vals, exs)
		onlyVals, onlyExs := make([]float64, len(qs)), make([]Exemplar, len(qs))
		q.At(qs, onlyVals, nil)
		q.At(qs, nil, onlyExs)
		for i, p := range qs {
			ex, _ := q.ExemplarNear(p)
			if v := q.Quantile(p); !sameFloat(vals[i], v) || !sameFloat(onlyVals[i], v) || exs[i] != ex || onlyExs[i] != ex {
				fail("At(%v)[%d] = %v/%v (values-only %v, exemplars-only %v), single calls %v/%v",
					qs, i, vals[i], exs[i], onlyVals[i], onlyExs[i], v, ex)
			}
		}
	}
}

// TestQuantileMatchesMapReference drives the dense-window sketch and the
// map-based reference through the same random operations — observations
// with and without exemplars over zero, negative, NaN, tiny, huge and
// repeated values, merges within and across geometries, resets — with a
// bucket cap small enough that collapse fires on almost every step, and
// requires every observable to agree after each one.
func TestQuantileMatchesMapReference(t *testing.T) {
	type pair struct {
		q *Quantile
		r *refQuantile
	}
	specials := []float64{0, -3.5, math.NaN(), 1e-12, minIndexable, math.Inf(-1), 42, 42, 42}
	// The ends of the indexable range stretch the window to its widest
	// (tens of thousands of cells), so every walk after the first one is
	// slow: they get one shorter run of their own.
	extremes := []float64{2 * minIndexable, 1e300, math.MaxFloat64, math.Inf(1)}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := 2000
		if seed == 4 {
			specials, steps = append(specials, extremes...), 500
		}
		capA := 2 + rng.Intn(5)
		ps := []pair{
			{NewQuantile(0.01, capA), newRefQuantile(0.01, capA)},
			{NewQuantile(0.01, 40), newRefQuantile(0.01, 40)},
			{NewQuantile(0.05, 8), newRefQuantile(0.05, 8)},
			{NewQuantile(0.01, 0), newRefQuantile(0.01, defaultQuantileBuckets)},
		}
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(ps))
			j := i // the donor of a merge, which must come out unchanged
			what := ""
			switch op := rng.Intn(100); {
			case op < 86:
				x := math.Exp(rng.NormFloat64()*4 + 1)
				if rng.Intn(5) == 0 {
					x = specials[rng.Intn(len(specials))]
				}
				var ex Exemplar
				if rng.Intn(2) == 0 {
					// Req collides across steps so the trace-ID tie-break runs.
					ex = Exemplar{TraceID: fmt.Sprintf("t%04d", rng.Intn(500)), Req: int64(step / 3), Value: x}
				}
				what = fmt.Sprintf("observe %v into %d", x, i)
				ps[i].q.ObserveEx(x, ex)
				ps[i].r.observe(x, ex)
			case op < 98:
				j = rng.Intn(len(ps))
				if j == i || ps[i].r.n+ps[j].r.n > 1<<40 {
					continue // mutual merges double the counts; stay far from overflow
				}
				what = fmt.Sprintf("merge %d into %d", j, i)
				ps[i].q.Merge(ps[j].q)
				ps[i].r.merge(ps[j].r)
			default:
				what = fmt.Sprintf("reset %d", i)
				ps[i].q.Reset()
				cap := ps[i].r.maxBuckets
				ps[i].r = newRefQuantile(ps[i].q.Alpha(), cap)
			}
			checkAgainstRef(t, step, what, ps[i].q, ps[i].r)
			if j != i {
				checkAgainstRef(t, step, what+", donor", ps[j].q, ps[j].r)
			}
		}
	}
}
