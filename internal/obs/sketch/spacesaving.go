package sketch

import (
	"math/bits"
	"sort"
)

// Entry is one tracked key of a Space-Saving summary. Count overestimates
// the key's true frequency by at most Err: true ∈ [Count-Err, Count].
type Entry struct {
	Key   uint64   `json:"key"`
	Count int64    `json:"count"`
	Err   int64    `json:"err"`
	Ex    Exemplar `json:"exemplar"`
}

// slot is one heap element: the (count, key) pair the heap orders by, plus
// the index of the cell that holds the rest of the entry. Keeping the
// comparison fields in the heap array itself means a sift reads one
// contiguous value slice and chases no pointers.
type slot struct {
	count int64
	key   uint64
	cell  int32
}

// cell is the part of an entry a sift never compares. Cells do not move:
// cell c belongs to the c-th key ever inserted and is reused by whichever
// key evicts it, so the hash table can name an entry by a stable index.
type cell struct {
	err int64
	ex  Exemplar
	pos int32 // index of this entry's slot in the heap
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
// The tracked set is indexed two ways, both flat and pointer-free: a min-heap
// of slots ordered by the (count, key) total order, whose root is the unique
// eviction victim, and an open-addressed table from key to cell index for
// O(1) lookup. Counts only grow, so an update is one sift-down — O(log k)
// instead of the O(k) min scan — and on a near-uniform stream, where almost
// every update evicts, the whole step (probe, backward-shift delete, insert,
// sift) touches three small arrays and allocates nothing.
//
// Not synchronized: a SpaceSaving has one owner, or sits behind its owner's
// lock (obs.TopK).
type SpaceSaving struct {
	k     int
	n     int64
	h     []slot // min-heap by (count, key); h[0] is the eviction victim
	cells []cell // len(cells) == len(h); cells[h[i].cell].pos == i
	// tab is the key index: linear probing from mix64(key)&mask over a
	// power-of-two table, holding cell index + 1 (0 is empty). Deletion
	// shifts the run back, so there are no tombstones. The table is at most a
	// quarter full: an eviction probes it three times (miss, delete, insert),
	// and it is the probe loops' exit branches that cost — half full, where a
	// run is as likely to go on as to end, BenchmarkTopKObserve read 88-94 ns
	// (zipf) and 110-115 (uniform); a quarter full 67-71 and 75-80; an eighth
	// 64-71 and 75-79. At the default k=32 that is 512 bytes.
	tab  []int32
	mask uint64
}

// NewSpaceSaving returns a summary tracking at most k keys (k < 1 selects 1).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	size := 2 // k = 1 still needs the empty slot that ends a probe
	for size < 4*k {
		size <<= 1
	}
	return &SpaceSaving{k: k, h: make([]slot, 0, k), cells: make([]cell, 0, k),
		tab: make([]int32, size), mask: uint64(size - 1)}
}

// N returns the total stream weight observed (0 on nil).
func (s *SpaceSaving) N() int64 {
	if s == nil {
		return 0
	}
	return s.n
}

// find probes for key and returns the index of its cell.
func (s *SpaceSaving) find(key uint64) (int32, bool) {
	for i := mix64(key) & s.mask; ; i = (i + 1) & s.mask {
		c := s.tab[i]
		if c == 0 {
			return 0, false
		}
		if s.h[s.cells[c-1].pos].key == key {
			return c - 1, true
		}
	}
}

// index enters an untracked key, held in cell c, into the table.
func (s *SpaceSaving) index(key uint64, c int32) {
	i := mix64(key) & s.mask
	for s.tab[i] != 0 {
		i = (i + 1) & s.mask
	}
	s.tab[i] = c + 1
}

// unindex removes a tracked key, held in cell c, from the table by backward
// shift: every later member of the probe run that would become unreachable
// across the hole moves into it.
func (s *SpaceSaving) unindex(key uint64, c int32) {
	i := mix64(key) & s.mask
	for s.tab[i] != c+1 {
		i = (i + 1) & s.mask
	}
	for j := i; ; {
		j = (j + 1) & s.mask
		m := s.tab[j]
		if m == 0 {
			s.tab[i] = 0
			return
		}
		// The entry at j stays put iff its home lies cyclically in (i, j].
		home := mix64(s.h[s.cells[m-1].pos].key) & s.mask
		if (j-home)&s.mask < (j-i)&s.mask {
			continue
		}
		s.tab[i] = m
		i = j
	}
}

// Update adds weight inc to key. Non-positive increments are ignored.
func (s *SpaceSaving) Update(key uint64, inc int64) { s.UpdateEx(key, inc, Exemplar{}) }

// UpdateEx is Update carrying an exemplar for the contributing request.
func (s *SpaceSaving) UpdateEx(key uint64, inc int64, ex Exemplar) {
	if s == nil || inc <= 0 {
		return
	}
	s.n += inc
	if c, found := s.find(key); found {
		cl := &s.cells[c]
		if ex.better(cl.ex) {
			cl.ex = ex
		}
		s.h[cl.pos].count += inc
		// The count grew, so the entry can only move away from the root.
		s.siftDown(int(cl.pos))
		return
	}
	if len(s.h) < s.k {
		c := int32(len(s.cells))
		s.index(key, c)
		s.cells = append(s.cells, cell{ex: ex, pos: c})
		s.h = append(s.h, slot{count: inc, key: key, cell: c})
		s.siftUp(len(s.h) - 1)
		return
	}
	// The newcomer inherits the victim's count as its overestimation bound
	// (the classic Space-Saving replacement); its exemplar dies with it. The
	// victim is the heap root — the unique minimum by (count, key) — and the
	// newcomer takes over its cell.
	v := s.h[0]
	s.unindex(v.key, v.cell)
	s.index(key, v.cell)
	s.cells[v.cell] = cell{err: v.count, ex: ex}
	s.h[0] = slot{count: v.count + inc, key: key, cell: v.cell}
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

// less is entryGreater reversed over heap slots: the heap order, with h[0]
// minimal.
func (a slot) less(b slot) bool { return a.below(b) != 0 }

// below is less as 0 or 1, computed without a branch: the borrow out of the
// 128-bit subtraction (a.count:a.key) - (b.count:b.key). Counts are positive,
// so the unsigned comparison is the signed one. siftDown adds it to an index
// to pick the smaller child, a choice no branch predictor can learn.
func (a slot) below(b slot) uint64 {
	_, borrow := bits.Sub64(a.key, b.key, 0)
	_, borrow = bits.Sub64(uint64(a.count), uint64(b.count), borrow)
	return borrow
}

// siftUp restores the heap invariant after an insertion at i.
func (s *SpaceSaving) siftUp(i int) {
	x := s.h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(s.h[p]) {
			break
		}
		s.h[i] = s.h[p]
		s.cells[s.h[i].cell].pos = int32(i)
		i = p
	}
	s.h[i] = x
	s.cells[x.cell].pos = int32(i)
}

// siftDown restores the heap invariant after the entry at i grew (or was
// replaced). It moves a hole down and drops the entry into it once, instead
// of swapping at every level.
func (s *SpaceSaving) siftDown(i int) {
	h := s.h
	x := h[i]
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) {
			m += int(h[r].below(h[m]))
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		s.cells[h[i].cell].pos = int32(i)
		i = m
	}
	h[i] = x
	s.cells[x.cell].pos = int32(i)
}

// minCount is the smallest tracked count when the summary is full — the
// upper bound on any untracked key's true frequency — and 0 otherwise
// (an unfull summary tracks every key it has seen exactly).
func (s *SpaceSaving) minCount() int64 {
	if s == nil || len(s.h) < s.k {
		return 0
	}
	return s.h[0].count
}

// entry assembles the exported view of the entry in heap slot i.
func (s *SpaceSaving) entry(i int) Entry {
	sl := s.h[i]
	cl := &s.cells[sl.cell]
	return Entry{Key: sl.key, Count: sl.count, Err: cl.err, Ex: cl.ex}
}

// Top returns the tracked entries ordered by (count desc, key asc) — a
// deterministic total order. The slice is a copy; mutating it does not
// affect the summary.
func (s *SpaceSaving) Top() []Entry {
	if s == nil {
		return nil
	}
	out := make([]Entry, 0, len(s.h))
	for i := range s.h {
		out = append(out, s.entry(i))
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
	for i := range s.h {
		me := s.entry(i)
		if c, ok := o.find(me.Key); ok {
			oc := &o.cells[c]
			me.Count += o.h[oc.pos].count
			me.Err += oc.err
			if oc.ex.better(me.Ex) {
				me.Ex = oc.ex
			}
		} else {
			me.Count += minO
			me.Err += minO
		}
		merged = append(merged, me)
	}
	for i := range o.h {
		oe := o.entry(i)
		if _, ok := s.find(oe.Key); ok {
			continue
		}
		merged = append(merged, Entry{Key: oe.Key, Count: oe.Count + minS, Err: oe.Err + minS, Ex: oe.Ex})
	}
	sort.Slice(merged, func(i, j int) bool { return entryGreater(merged[i], merged[j]) })
	if len(merged) > s.k {
		merged = merged[:s.k]
	}
	n := s.n + o.n
	s.Reset()
	for i, me := range merged {
		s.index(me.Key, int32(i))
		s.cells = append(s.cells, cell{err: me.Err, ex: me.Ex, pos: int32(i)})
		s.h = append(s.h, slot{count: me.Count, key: me.Key, cell: int32(i)})
	}
	for i := len(s.h)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	s.n = n
}

// Reset clears the summary for reuse (per-segment worker sketches).
func (s *SpaceSaving) Reset() {
	if s == nil {
		return
	}
	s.n = 0
	s.h = s.h[:0]
	s.cells = s.cells[:0]
	clear(s.tab)
}
