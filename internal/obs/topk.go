package obs

import (
	"math"
	"strconv"
	"sync"

	"starcdn/internal/obs/sketch"
)

// defaultTopKEntries is the tracked-entry capacity a TopK instrument gets
// when the caller passes k <= 0.
const defaultTopKEntries = 32

// promTopKRanks bounds how many rank-indexed rows a TopK instrument emits
// on the Prometheus exposition (and how many rank rings the flight recorder
// keeps). The full tracked set — keys, errors, exemplars — is only on the
// JSON exposition, so object identities never become label values.
const promTopKRanks = 8

// SketchQuantiles are the quantiles a Sketch instrument exposes as
// bounded-cardinality rows (`name_q{q="..."}`) and records per epoch.
var SketchQuantiles = []float64{0.5, 0.9, 0.99}

// TopKEntry is one ranked entry of a TopK snapshot. Count overestimates the
// key's true frequency by at most Err.
type TopKEntry struct {
	Key      string          `json:"key"`
	Count    int64           `json:"count"`
	Err      int64           `json:"err"`
	Exemplar sketch.Exemplar `json:"exemplar"`
}

// TopK is a registry instrument tracking the approximate top-K keys of a
// stream (hot objects, hot satellites, hot buckets) in bounded memory: a
// Space-Saving summary behind mu, the only lock an update takes
// (internal/obs/sketch is not synchronized). Updates from concurrent
// goroutines are safe; a nil TopK ignores every call (the disabled-registry
// path).
type TopK struct {
	mu sync.Mutex
	ss *sketch.SpaceSaving
	// namer renders a display name from the integer key. Rendering happens
	// at exposition time only, so the per-update path never builds a string.
	namer func(uint64) string
}

// newTopK returns an instrument tracking at most k entries (k <= 0 selects
// the default capacity).
func newTopK(k int) *TopK {
	if k <= 0 {
		k = defaultTopKEntries
	}
	return &TopK{ss: sketch.NewSpaceSaving(k)}
}

// ObserveIDEx adds weight inc to the entry keyed by an integer identity
// (object ID, satellite ID, bucket index), carrying a trace exemplar for the
// contributing request. The key IS the identity — no hashing, no name table
// — and the display name is rendered lazily at exposition time by the
// instrument's namer (SetNamer). No-op on nil or inc <= 0.
func (t *TopK) ObserveIDEx(id uint64, inc int64, ex sketch.Exemplar) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ss.UpdateEx(id, inc, ex)
	t.mu.Unlock()
}

// ObserveEach adds weight 1 for each of n observations, in index order,
// under one lock hold: at(i) returns observation i's key and exemplar, or
// ok == false to skip it. The result equals n ObserveIDEx calls in the same
// order. No-op on nil.
func (t *TopK) ObserveEach(n int, at func(i int) (id uint64, ex sketch.Exemplar, ok bool)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := 0; i < n; i++ {
		if id, ex, ok := at(i); ok {
			t.ss.UpdateEx(id, 1, ex)
		}
	}
	t.mu.Unlock()
}

// SetNamer registers the display-name renderer. Resolving the same
// instrument twice re-registers harmlessly.
func (t *TopK) SetNamer(f func(uint64) string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.namer = f
	t.mu.Unlock()
}

// N returns the total stream weight observed (0 on nil).
func (t *TopK) N() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ss.N()
}

// Top returns the ranked entries (count desc, key asc) with display names
// resolved. Nil-safe.
func (t *TopK) Top() []TopKEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	entries := t.ss.Top()
	out := make([]TopKEntry, 0, len(entries))
	for _, e := range entries {
		name := strconv.FormatUint(e.Key, 10)
		if t.namer != nil {
			name = t.namer(e.Key)
		}
		out = append(out, TopKEntry{Key: name, Count: e.Count, Err: e.Err, Exemplar: e.Ex})
	}
	return out
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

// ObserveEach records n samples, in index order, under one lock hold: at(i)
// returns sample i and its exemplar. The result equals n ObserveEx calls in
// the same order. No-op on nil.
func (s *Sketch) ObserveEach(n int, at func(i int) (x float64, ex sketch.Exemplar)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := 0; i < n; i++ {
		s.q.ObserveEx(at(i))
	}
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
