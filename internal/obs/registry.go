package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"starcdn/internal/obs/sketch"
)

// Label is one name=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L builds a Label; it keeps call sites short.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores updates (the disabled-registry path).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 value. The zero value is ready to
// use; a nil Gauge ignores updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x (no-op on nil).
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Add adds d to the gauge with a CAS loop (no-op on nil).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram with atomic per-bucket
// counters. Buckets are defined by their inclusive upper bounds; an implicit
// +Inf bucket catches the tail. A nil Histogram ignores observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefLatencyBucketsMs is the default latency histogram geometry, spanning
// sub-millisecond loopback frames to multi-second chaos stalls.
var DefLatencyBucketsMs = []float64{
	0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample (no-op on nil). NaN is skipped, the rule
// sketch.Quantile follows too: it belongs to no bucket, and one NaN added to
// the sum would leave the series NaN for the rest of the run.
func (h *Histogram) Observe(x float64) {
	if h == nil || math.IsNaN(x) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

// ObserveEach records n samples given in index order by at(i), with one
// atomic update per touched bucket, one for the count and one for the sum.
// The sum adds the samples in index order, so a histogram no one else
// observes meanwhile ends exactly as after n Observe calls. No-op on nil.
func (h *Histogram) ObserveEach(n int, at func(i int) float64) {
	if h == nil {
		return
	}
	var buf [32]int64
	local := buf[:0]
	if len(h.counts) <= len(buf) {
		local = buf[:len(h.counts)]
	} else {
		local = make([]int64, len(h.counts))
	}
	var count int64
	old := h.sum.Load()
	sum := math.Float64frombits(old)
	for i := 0; i < n; i++ {
		x := at(i)
		if math.IsNaN(x) {
			continue
		}
		local[sort.SearchFloat64s(h.bounds, x)]++
		count++
		sum += x
	}
	for !h.sum.CompareAndSwap(old, math.Float64bits(sum)) {
		// Another observer got in between: add the samples to its sum.
		old = h.sum.Load()
		sum = math.Float64frombits(old)
		for i := 0; i < n; i++ {
			if x := at(i); !math.IsNaN(x) {
				sum += x
			}
		}
	}
	for i, c := range local {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(count)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns (bounds, cumulative counts per bound plus +Inf).
func (h *Histogram) snapshot() (bounds []float64, cumulative []int64) {
	cumulative = make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return h.bounds, cumulative
}

// metricKind discriminates registry series.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
	topkKind
	sketchKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case topkKind:
		return "topk"
	case sketchKind:
		return "sketch"
	default:
		return "histogram"
	}
}

// series is one registered (name, labels) instrument. key caches the
// canonical name{labels} identity so hot readers (the flight recorder) never
// re-render labels.
type series struct {
	name   string
	key    string
	labels []Label
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
	tk     *TopK
	sk     *Sketch
}

// Registry hands out named, labelled instruments and snapshots them for
// exposition. Lookups take a mutex, so callers on hot paths fetch their
// handles once and hold them; the instruments themselves are atomic.
//
// A nil *Registry is the disabled configuration: every lookup returns a nil
// instrument whose methods are no-ops.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
	order  []*series // registration order; append-only
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// seriesKey renders the canonical identity of a series. Labels are sorted by
// key so L("a","1"),L("b","2") and L("b","2"),L("a","1") name the same
// series.
func seriesKey(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String(), ls
}

// lookup returns (creating if needed) the series for (name, labels, kind).
// A pre-existing series of a different kind under the same name+labels is a
// programmer error; the caller then gets a fresh detached instrument that
// never shows up in expositions rather than corrupting the registered one.
func (r *Registry) lookup(name string, labels []Label, kind metricKind, bounds []float64, param float64) *series {
	key, ls := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[key]
	if ok && s.kind == kind {
		return s
	}
	ns := &series{name: name, key: key, labels: ls, kind: kind}
	switch kind {
	case counterKind:
		ns.c = &Counter{}
	case gaugeKind:
		ns.g = &Gauge{}
	case histogramKind:
		ns.h = newHistogram(bounds)
	case topkKind:
		ns.tk = newTopK(int(param))
	case sketchKind:
		ns.sk = newSketchInstrument(param)
	}
	if !ok {
		r.series[key] = ns
		r.order = append(r.order, ns)
	}
	return ns
}

// seriesFrom returns the series registered after the first n, in
// registration order, without the sorting or label rendering Snapshot pays.
// The registry is append-only, so a reader that has planned n series (the
// flight recorder) needs only this tail. Nil-safe.
func (r *Registry) seriesFrom(n int) []*series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order[n:len(r.order):len(r.order)]
}

// Counter returns the counter registered under (name, labels), creating it
// on first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, counterKind, nil, 0).c
}

// Gauge returns the gauge registered under (name, labels). A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, gaugeKind, nil, 0).g
}

// Histogram returns the histogram registered under (name, labels), creating
// it with the given bucket upper bounds on first use (nil bounds select
// DefLatencyBucketsMs). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefLatencyBucketsMs
	}
	return r.lookup(name, labels, histogramKind, bounds, 0).h
}

// TopK returns the top-K popularity instrument registered under (name,
// labels), tracking at most k keys (k <= 0 selects the default capacity;
// the capacity is fixed on first use). A nil registry returns a nil (no-op)
// instrument.
func (r *Registry) TopK(name string, k int, labels ...Label) *TopK {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, topkKind, nil, float64(k)).tk
}

// Sketch returns the quantile-sketch instrument registered under (name,
// labels) with relative accuracy alpha (alpha <= 0 selects 0.01; the
// accuracy is fixed on first use). A nil registry returns a nil (no-op)
// instrument.
func (r *Registry) Sketch(name string, alpha float64, labels ...Label) *Sketch {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, sketchKind, nil, alpha).sk
}

// SeriesSnapshot is one series' frozen state, as used by the expositions.
type SeriesSnapshot struct {
	Name   string
	Labels []Label
	Kind   string
	// Value holds the counter or gauge value.
	Value float64
	// HistBounds/HistCumulative/HistCount/HistSum describe histograms.
	HistBounds     []float64
	HistCumulative []int64
	HistCount      int64
	HistSum        float64
	// TopK/TopKN describe top-K instruments: the ranked entries and the
	// total stream weight they summarise.
	TopK  []TopKEntry
	TopKN int64
	// SketchQ (aligned with SketchQuantiles), SketchExemplars, SketchCount,
	// SketchSum, SketchMin, and SketchMax describe quantile sketches.
	SketchQ         []float64
	SketchExemplars []sketch.Exemplar
	SketchCount     int64
	SketchSum       float64
	SketchMin       float64
	SketchMax       float64
}

// LabelString renders the series' labels as {k="v",...} ("" when unlabelled).
func (s SeriesSnapshot) LabelString() string {
	if len(s.Labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range s.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Snapshot freezes every registered series, sorted by name then labels, so
// expositions are deterministic. A nil registry snapshots to nothing.
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	all := r.seriesFrom(0)

	out := make([]SeriesSnapshot, 0, len(all))
	for _, s := range all {
		snap := SeriesSnapshot{Name: s.name, Labels: s.labels, Kind: s.kind.String()}
		switch s.kind {
		case counterKind:
			snap.Value = float64(s.c.Value())
		case gaugeKind:
			snap.Value = s.g.Value()
		case histogramKind:
			snap.HistBounds, snap.HistCumulative = s.h.snapshot()
			// Derive the count from the cumulative tail so exposition rows
			// stay internally consistent under concurrent updates.
			snap.HistCount = snap.HistCumulative[len(snap.HistCumulative)-1]
			snap.HistSum = s.h.Sum()
		case topkKind:
			snap.TopK = s.tk.Top()
			snap.TopKN = s.tk.N()
		case sketchKind:
			snap.SketchQ, snap.SketchExemplars, snap.SketchCount,
				snap.SketchSum, snap.SketchMin, snap.SketchMax = s.sk.snapshotSketch()
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].LabelString() < out[j].LabelString()
	})
	return out
}
