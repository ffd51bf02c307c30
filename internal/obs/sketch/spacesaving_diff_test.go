package sketch

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refSpaceSaving is the naive reference SpaceSaving is checked against: one
// map entry per tracked key and an O(k) scan for the (count, key) minimum on
// every eviction — no heap, no positions, nothing to keep in step.
type refSpaceSaving struct {
	k int
	n int64
	m map[uint64]*Entry
}

func newRefSpaceSaving(k int) *refSpaceSaving {
	return &refSpaceSaving{k: k, m: map[uint64]*Entry{}}
}

// min is the eviction victim: the unique minimum by (count, key).
func (r *refSpaceSaving) min() *Entry {
	var v *Entry
	for _, e := range r.m {
		if v == nil || e.Count < v.Count || (e.Count == v.Count && e.Key < v.Key) {
			v = e
		}
	}
	return v
}

func (r *refSpaceSaving) minCount() int64 {
	if len(r.m) < r.k {
		return 0
	}
	return r.min().Count
}

func (r *refSpaceSaving) update(key uint64, inc int64, ex Exemplar) {
	if inc <= 0 {
		return
	}
	r.n += inc
	if e := r.m[key]; e != nil {
		e.Count += inc
		if ex.better(e.Ex) {
			e.Ex = ex
		}
		return
	}
	if len(r.m) < r.k {
		r.m[key] = &Entry{Key: key, Count: inc, Ex: ex}
		return
	}
	v := r.min()
	delete(r.m, v.Key)
	r.m[key] = &Entry{Key: key, Count: v.Count + inc, Err: v.Count, Ex: ex}
}

func (r *refSpaceSaving) top() []Entry {
	out := make([]Entry, 0, len(r.m))
	for _, e := range r.m {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (r *refSpaceSaving) merge(o *refSpaceSaving) {
	if o.n == 0 {
		return
	}
	minR, minO := r.minCount(), o.minCount()
	merged := map[uint64]*Entry{}
	for key, e := range r.m {
		me := *e
		if oe := o.m[key]; oe != nil {
			me.Count += oe.Count
			me.Err += oe.Err
			if oe.Ex.better(me.Ex) {
				me.Ex = oe.Ex
			}
		} else {
			me.Count += minO
			me.Err += minO
		}
		merged[key] = &me
	}
	for key, oe := range o.m {
		if _, ok := r.m[key]; !ok {
			merged[key] = &Entry{Key: key, Count: oe.Count + minR, Err: oe.Err + minR, Ex: oe.Ex}
		}
	}
	r.m = merged
	r.n += o.n
	if all := r.top(); len(all) > r.k {
		for _, e := range all[r.k:] {
			delete(r.m, e.Key)
		}
	}
}

// checkSpaceSavingAgainstRef compares every observable of s with the
// reference.
func checkSpaceSavingAgainstRef(t *testing.T, step int, what string, s *SpaceSaving, r *refSpaceSaving) {
	t.Helper()
	got, want := s.Top(), r.top()
	if s.N() != r.n || !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d (%s): n=%d top=%v, reference n=%d top=%v", step, what, s.N(), got, r.n, want)
	}
	if len(got) > r.k {
		t.Fatalf("step %d (%s): %d entries exceed k=%d", step, what, len(got), r.k)
	}
}

// TestSpaceSavingMatchesNaiveReference drives SpaceSaving and the map plus
// min-scan reference through the same random Update/UpdateEx/Merge/Reset
// sequences — capacities small enough that eviction fires on almost every
// step, key domains both smaller and far larger than k, weights that tie
// counts so the key tie-break decides victims, exemplars whose Req collides
// so the trace-ID tie-break runs — and requires Top and N to agree entry for
// entry after every operation, on the receiver and on a merge's donor.
func TestSpaceSavingMatchesNaiveReference(t *testing.T) {
	type pair struct {
		s *SpaceSaving
		r *refSpaceSaving
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ps []pair
		for _, k := range []int{1, 2, 3, int(seed), 6, 32, 32} {
			ps = append(ps, pair{NewSpaceSaving(k), newRefSpaceSaving(k)})
		}
		// domains[d] bounds the keys drawn in a step: below every k > 3, around
		// k=32, and far above any k (nearly every update is a newcomer).
		domains := []int64{3, 40, 1 << 40}
		for step := 0; step < 6000; step++ {
			i := rng.Intn(len(ps))
			j := i // the donor of a merge, which must come out unchanged
			what := ""
			switch op := rng.Intn(1000); {
			case op < 940:
				key := uint64(rng.Int63n(domains[rng.Intn(len(domains))]))
				inc := int64(1 + rng.Intn(3))
				if rng.Intn(50) == 0 {
					inc = int64(rng.Intn(2)) - 1 // 0 or -1: ignored
				}
				if rng.Intn(2) == 0 {
					what = fmt.Sprintf("update %d += %d in %d", key, inc, i)
					ps[i].s.Update(key, inc)
					ps[i].r.update(key, inc, Exemplar{})
				} else {
					ex := Exemplar{TraceID: fmt.Sprintf("t%03d", rng.Intn(200)), Req: int64(step / 4), Value: float64(inc)}
					what = fmt.Sprintf("update %d += %d in %d with %v", key, inc, i, ex)
					ps[i].s.UpdateEx(key, inc, ex)
					ps[i].r.update(key, inc, ex)
				}
			case op < 995:
				j = rng.Intn(len(ps))
				if j == i || ps[i].r.n+ps[j].r.n > 1<<40 {
					continue // mutual merges double the counts; stay far from overflow
				}
				what = fmt.Sprintf("merge %d into %d", j, i)
				ps[i].s.Merge(ps[j].s)
				ps[i].r.merge(ps[j].r)
			default:
				what = fmt.Sprintf("reset %d", i)
				ps[i].s.Reset()
				ps[i].r = newRefSpaceSaving(ps[i].r.k)
			}
			checkSpaceSavingAgainstRef(t, step, what, ps[i].s, ps[i].r)
			if j != i {
				checkSpaceSavingAgainstRef(t, step, what+", donor", ps[j].s, ps[j].r)
			}
		}
	}
}
