package sketch

import "sort"

// Entry is one tracked key of a Space-Saving summary. Count overestimates
// the key's true frequency by at most Err: true ∈ [Count-Err, Count].
type Entry struct {
	Key   uint64   `json:"key"`
	Count int64    `json:"count"`
	Err   int64    `json:"err"`
	Ex    Exemplar `json:"exemplar"`
}

// node is one tracked entry plus its position in the eviction heap, so an
// update can re-sift the entry in O(log k) without searching for it.
type node struct {
	e   Entry
	pos int
}

// SpaceSaving is the Metwally et al. top-K frequency summary: it tracks at
// most k keys; an untracked key evicts the minimum-count entry and inherits
// its count as overestimation error. For a stream of total weight N the
// per-entry error is bounded by N/k, and every key with true frequency
// above N/k is guaranteed to be tracked.
//
// Determinism: the eviction victim is the minimum by (count, key) — a total
// order — so identical streams produce identical summaries. Note that the
// summary is a function of stream *order* once eviction starts: per-shard
// sketches merged with Merge agree with a single-stream sketch exactly
// while no eviction occurred, and within the error bounds after.
//
// The tracked set is indexed two ways: a map for O(1) key lookup and an
// intrusive min-heap ordered by the (count, key) total order, whose root is
// the unique eviction victim. Counts only grow, so an update is one
// sift-down — O(log k) instead of the O(k) min scan, which is what keeps
// the eviction-heavy tail of a Zipf stream off the hot-path profile.
//
// Not synchronized: a SpaceSaving has one owner, or sits behind its owner's
// lock (obs.TopK).
type SpaceSaving struct {
	k int
	n int64
	m map[uint64]*node
	h []*node // min-heap by (count, key); h[0] is the eviction victim
}

// NewSpaceSaving returns a summary tracking at most k keys (k < 1 selects 1).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving{k: k, m: make(map[uint64]*node, k), h: make([]*node, 0, k)}
}

// N returns the total stream weight observed (0 on nil).
func (s *SpaceSaving) N() int64 {
	if s == nil {
		return 0
	}
	return s.n
}

// Update adds weight inc to key. Non-positive increments are ignored.
func (s *SpaceSaving) Update(key uint64, inc int64) { s.UpdateEx(key, inc, Exemplar{}) }

// UpdateEx is Update carrying an exemplar for the contributing request.
func (s *SpaceSaving) UpdateEx(key uint64, inc int64, ex Exemplar) {
	if s == nil || inc <= 0 {
		return
	}
	s.n += inc
	if nd, found := s.m[key]; found {
		nd.e.Count += inc
		if ex.better(nd.e.Ex) {
			nd.e.Ex = ex
		}
		// The count grew, so the entry can only move away from the root.
		s.siftDown(nd.pos)
		return
	}
	if len(s.m) < s.k {
		nd := &node{e: Entry{Key: key, Count: inc, Ex: ex}, pos: len(s.h)}
		s.m[key] = nd
		s.h = append(s.h, nd)
		s.siftUp(nd.pos)
		return
	}
	// The newcomer inherits the victim's count as its overestimation bound
	// (the classic Space-Saving replacement); its exemplar dies with it. The
	// victim is the heap root — the unique minimum by (count, key).
	v := s.h[0]
	delete(s.m, v.e.Key)
	v.e = Entry{Key: key, Count: v.e.Count + inc, Err: v.e.Count, Ex: ex}
	s.m[key] = v
	s.siftDown(0)
}

// entryGreater is the (count desc, key asc) total order shared by Top and
// Merge. Taking entries by value keeps the comparison free of shared state.
func entryGreater(a, b Entry) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Key < b.Key
}

// entryLess is entryGreater reversed: the heap order, with h[0] minimal.
func entryLess(a, b *node) bool {
	if a.e.Count != b.e.Count {
		return a.e.Count < b.e.Count
	}
	return a.e.Key < b.e.Key
}

// siftUp restores the heap invariant after an insertion at i.
func (s *SpaceSaving) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(s.h[i], s.h[p]) {
			return
		}
		s.h[i], s.h[p] = s.h[p], s.h[i]
		s.h[i].pos, s.h[p].pos = i, p
		i = p
	}
}

// siftDown restores the heap invariant after the entry at i grew (or was
// replaced).
func (s *SpaceSaving) siftDown(i int) {
	n := len(s.h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && entryLess(s.h[l], s.h[min]) {
			min = l
		}
		if r < n && entryLess(s.h[r], s.h[min]) {
			min = r
		}
		if min == i {
			return
		}
		s.h[i], s.h[min] = s.h[min], s.h[i]
		s.h[i].pos, s.h[min].pos = i, min
		i = min
	}
}

// minCount is the smallest tracked count when the summary is full — the
// upper bound on any untracked key's true frequency — and 0 otherwise
// (an unfull summary tracks every key it has seen exactly).
func (s *SpaceSaving) minCount() int64 {
	if s == nil || len(s.m) < s.k {
		return 0
	}
	return s.h[0].e.Count
}

// Top returns the tracked entries ordered by (count desc, key asc) — a
// deterministic total order. The slice is a copy; mutating it does not
// affect the summary.
func (s *SpaceSaving) Top() []Entry {
	if s == nil {
		return nil
	}
	out := make([]Entry, 0, len(s.h))
	for _, nd := range s.h {
		out = append(out, nd.e)
	}
	sort.Slice(out, func(i, j int) bool { return entryGreater(out[i], out[j]) })
	return out
}

// Merge folds o into s following the mergeable-summaries construction: for
// every key tracked on either side, the merged count (and error) is the sum
// of the per-side counts, with a side that does not track the key
// contributing its minimum tracked count — the tightest upper bound it can
// state for an unseen key. The k largest merged entries by (count desc,
// key asc) survive, so merge(a,b) and merge(b,a) produce identical
// summaries. The receiver keeps its own capacity; o is not modified.
func (s *SpaceSaving) Merge(o *SpaceSaving) {
	if s == nil || o == nil || o.n == 0 {
		return
	}
	minS, minO := s.minCount(), o.minCount()
	merged := make([]Entry, 0, len(s.h)+len(o.h))
	for _, nd := range s.h {
		me := nd.e
		if od, ok := o.m[me.Key]; ok {
			me.Count += od.e.Count
			me.Err += od.e.Err
			if od.e.Ex.better(me.Ex) {
				me.Ex = od.e.Ex
			}
		} else {
			me.Count += minO
			me.Err += minO
		}
		merged = append(merged, me)
	}
	for _, od := range o.h {
		oe := od.e
		if _, ok := s.m[oe.Key]; ok {
			continue
		}
		merged = append(merged, Entry{Key: oe.Key, Count: oe.Count + minS, Err: oe.Err + minS, Ex: oe.Ex})
	}
	sort.Slice(merged, func(i, j int) bool { return entryGreater(merged[i], merged[j]) })
	if len(merged) > s.k {
		merged = merged[:s.k]
	}
	s.m = make(map[uint64]*node, len(merged))
	s.h = s.h[:0]
	for i := range merged {
		nd := &node{e: merged[i], pos: len(s.h)}
		s.m[nd.e.Key] = nd
		s.h = append(s.h, nd)
	}
	for i := len(s.h)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	s.n += o.n
}

// Reset clears the summary for reuse (per-segment worker sketches).
func (s *SpaceSaving) Reset() {
	if s == nil {
		return
	}
	s.n = 0
	clear(s.m)
	s.h = s.h[:0]
}
