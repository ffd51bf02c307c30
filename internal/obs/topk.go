package obs

import (
	"fmt"
	"math"
	"sync"

	"starcdn/internal/obs/sketch"
)

// defaultTopKEntries is the tracked-entry capacity a TopK instrument gets
// when the caller passes k <= 0.
const defaultTopKEntries = 32

// promTopKRanks bounds how many rank-indexed rows a TopK instrument emits
// on the Prometheus exposition (and how many rank rings the flight recorder
// keeps). The full tracked set — keys, errors, exemplars — is only on
// /popularity.json and the JSON exposition, so object identities never
// become label values.
const promTopKRanks = 8

// SketchQuantiles are the quantiles a Sketch instrument exposes as
// bounded-cardinality rows (`name_q{q="..."}`) and records per epoch.
var SketchQuantiles = []float64{0.5, 0.9, 0.99}

// hashKey is FNV-1a over the key string: the stable string→uint64 mapping
// the popularity sketches index on. Display names ride alongside in a
// bounded table, so hashes never leak into expositions.
func hashKey(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// TopKEntry is one ranked entry of a TopK snapshot. Count overestimates the
// key's true frequency by at most Err; Refined is min(Count, Count-Min
// estimate) — a valid, usually tighter, upper bound.
type TopKEntry struct {
	Key      string          `json:"key"`
	Count    int64           `json:"count"`
	Err      int64           `json:"err"`
	Refined  int64           `json:"refined"`
	Exemplar sketch.Exemplar `json:"exemplar"`
}

// TopKShard is the single-owner form of a TopK instrument: a Space-Saving
// summary, a Count-Min refinement grid, and a bounded name table, with no
// lock anywhere (internal/obs/sketch is not synchronized either). One
// goroutine owns a shard: per-worker shards absorb updates and merge into
// the registry's TopK instrument at deterministic barriers (segment
// boundaries in the concurrent replayer), and the TopK instrument's shard
// sits behind TopK.mu.
type TopKShard struct {
	ss    *sketch.SpaceSaving
	cm    *sketch.CountMin
	names map[uint64]string
	// namer renders a display name from an integer key fed through
	// ObserveIDEx; nil for string-keyed shards. Rendering happens at
	// exposition time only, so the per-update path never builds a string.
	namer func(uint64) string
}

// NewTopKShard returns a shard tracking at most k entries (k <= 0 selects
// the default capacity).
func NewTopKShard(k int) *TopKShard {
	if k <= 0 {
		k = defaultTopKEntries
	}
	return &TopKShard{
		ss:    sketch.NewSpaceSaving(k),
		cm:    sketch.NewCountMin(1024, 4),
		names: make(map[uint64]string, 2*k),
	}
}

// Observe adds weight inc to key (no-op on nil shards or inc <= 0).
func (t *TopKShard) Observe(key string, inc int64) { t.ObserveEx(key, inc, sketch.Exemplar{}) }

// ObserveEx is Observe carrying a trace exemplar for the contributing
// request.
func (t *TopKShard) ObserveEx(key string, inc int64, ex sketch.Exemplar) {
	if t == nil || inc <= 0 {
		return
	}
	h := hashKey(key)
	if evicted, ok := t.ss.UpdateEvict(h, inc, ex); ok {
		// The victim is no longer tracked; dropping its display name here
		// keeps the table bounded by k without periodic sweeps.
		delete(t.names, evicted)
	}
	t.cm.Update(h, inc)
	if _, ok := t.names[h]; !ok {
		t.names[h] = key
		if len(t.names) > 4*t.ss.K() {
			t.pruneNames() // merge-imported keys can still accumulate
		}
	}
}

// SetNamer registers the display-name renderer for integer-keyed shards
// (ObserveIDEx). Call once at resolve time, before concurrent updates.
func (t *TopKShard) SetNamer(f func(uint64) string) {
	if t == nil {
		return
	}
	t.namer = f
}

// ObserveID records an update keyed by an integer identity (object ID,
// satellite ID, bucket index) instead of a string. The key IS the identity —
// no hashing, no name-table traffic — and the display name is rendered
// lazily at exposition time by the namer (SetNamer). An instrument must be
// fed through exactly one of the string or ID paths: the two key spaces do
// not mix.
func (t *TopKShard) ObserveID(id uint64, inc int64) { t.ObserveIDEx(id, inc, sketch.Exemplar{}) }

// ObserveIDEx is ObserveID carrying a trace exemplar.
func (t *TopKShard) ObserveIDEx(id uint64, inc int64, ex sketch.Exemplar) {
	if t == nil || inc <= 0 {
		return
	}
	t.ss.UpdateEx(id, inc, ex)
	t.cm.Update(id, inc)
}

// pruneNames drops name-table entries for keys the summary no longer
// tracks, keeping the table (and therefore the shard) bounded by k.
func (t *TopKShard) pruneNames() {
	tracked := make(map[uint64]bool, t.ss.Len())
	for _, e := range t.ss.Top() {
		tracked[e.Key] = true
	}
	for h := range t.names {
		if !tracked[h] {
			delete(t.names, h)
		}
	}
}

// N returns the total stream weight observed (0 on nil).
func (t *TopKShard) N() int64 {
	if t == nil {
		return 0
	}
	return t.ss.N()
}

// Reset clears the shard for the next segment.
func (t *TopKShard) Reset() {
	if t == nil {
		return
	}
	t.ss.Reset()
	t.cm.Reset()
	clear(t.names)
}

// top renders the ranked entries with display names and refined estimates.
func (t *TopKShard) top() []TopKEntry {
	entries := t.ss.Top()
	out := make([]TopKEntry, 0, len(entries))
	for _, e := range entries {
		name, ok := t.names[e.Key]
		if !ok {
			if t.namer != nil {
				name = t.namer(e.Key)
			} else {
				// A merge can import an entry whose name the donor had
				// pruned; fall back to the hash so the row stays
				// identifiable.
				name = fmt.Sprintf("key-%016x", e.Key)
			}
		}
		refined := e.Count
		if est := t.cm.Estimate(e.Key); est < refined {
			refined = est
		}
		out = append(out, TopKEntry{Key: name, Count: e.Count, Err: e.Err, Refined: refined, Exemplar: e.Ex})
	}
	return out
}

// merge folds o into t: mergeable-summaries merge for the Space-Saving
// side, exact element-wise merge for the Count-Min grid, union for names.
func (t *TopKShard) merge(o *TopKShard) {
	if t == nil || o == nil {
		return
	}
	t.ss.Merge(o.ss)
	t.cm.Merge(o.cm)
	for h, name := range o.names {
		t.names[h] = name
	}
	t.pruneNames()
}

// TopK is a registry instrument tracking the approximate top-K keys of a
// stream (hot objects, hot satellites, hot buckets) in bounded memory: a
// TopKShard behind mu, the only lock an update takes. Updates from
// concurrent goroutines are safe; a nil TopK ignores every call (the
// disabled-registry path).
type TopK struct {
	mu    sync.Mutex
	shard *TopKShard
}

func newTopK(k int) *TopK { return &TopK{shard: NewTopKShard(k)} }

// Observe adds weight inc to key (no-op on nil).
func (t *TopK) Observe(key string, inc int64) { t.ObserveEx(key, inc, sketch.Exemplar{}) }

// ObserveEx is Observe carrying a trace exemplar.
func (t *TopK) ObserveEx(key string, inc int64, ex sketch.Exemplar) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.shard.ObserveEx(key, inc, ex)
	t.mu.Unlock()
}

// ObserveID records an update keyed by an integer identity; the display
// name is rendered lazily by the namer (SetNamer). See TopKShard.ObserveID.
func (t *TopK) ObserveID(id uint64, inc int64) { t.ObserveIDEx(id, inc, sketch.Exemplar{}) }

// ObserveIDEx is ObserveID carrying a trace exemplar.
func (t *TopK) ObserveIDEx(id uint64, inc int64, ex sketch.Exemplar) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.shard.ObserveIDEx(id, inc, ex)
	t.mu.Unlock()
}

// SetNamer registers the display-name renderer for the ID-keyed observe
// path. Resolving the same instrument twice re-registers harmlessly.
func (t *TopK) SetNamer(f func(uint64) string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.shard.SetNamer(f)
	t.mu.Unlock()
}

// MergeShard folds a single-owner shard into the instrument — the
// deterministic barrier merge the concurrent replayer performs per segment.
// The shard is not modified.
func (t *TopK) MergeShard(s *TopKShard) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	t.shard.merge(s)
	t.mu.Unlock()
}

// N returns the total stream weight observed (0 on nil).
func (t *TopK) N() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shard.N()
}

// Top returns the ranked entries (count desc, key asc), refined against the
// Count-Min grid, with display names resolved. Nil-safe.
func (t *TopK) Top() []TopKEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shard.top()
}

// Sketch is a registry instrument summarising a value distribution with a
// relative-error quantile sketch: a sketch.Quantile behind mu, the only lock
// an observation takes. Concurrent observers are safe; a nil Sketch ignores
// every call.
type Sketch struct {
	mu sync.Mutex
	q  *sketch.Quantile
}

func newSketchInstrument(alpha float64) *Sketch {
	return &Sketch{q: sketch.NewQuantile(alpha, 0)}
}

// Observe records one sample (no-op on nil).
func (s *Sketch) Observe(x float64) { s.ObserveEx(x, sketch.Exemplar{}) }

// ObserveEx is Observe carrying a trace exemplar.
func (s *Sketch) ObserveEx(x float64, ex sketch.Exemplar) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.q.ObserveEx(x, ex)
	s.mu.Unlock()
}

// MergeQuantile folds a single-owner quantile sketch (a per-worker shard)
// into the instrument. The donor is not modified.
func (s *Sketch) MergeQuantile(q *sketch.Quantile) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.q.Merge(q)
	s.mu.Unlock()
}

// Count returns the number of observations (0 on nil).
func (s *Sketch) Count() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.Count()
}

// Quantile returns the q-quantile estimate (NaN when empty or nil).
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil {
		return math.NaN()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.Quantile(q)
}

// snapshotSketch freezes the exposition view of the instrument: values and
// exemplars at SketchQuantiles, plus count/sum/min/max.
func (s *Sketch) snapshotSketch() (qv []float64, ex []sketch.Exemplar, count int64, sum, min, max float64) {
	qv = make([]float64, len(SketchQuantiles))
	ex = make([]sketch.Exemplar, len(SketchQuantiles))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q.At(SketchQuantiles, qv, ex)
	return qv, ex, s.q.Count(), s.q.Sum(), s.q.Min(), s.q.Max()
}

// quantilesInto is the recorder's per-epoch view: the SketchQuantiles
// estimates stored into qv and the sample count, in one bucket walk, with no
// exemplars and no allocation.
func (s *Sketch) quantilesInto(qv []float64) (count int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q.At(SketchQuantiles, qv, nil)
	return s.q.Count()
}
