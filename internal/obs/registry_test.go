package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// histCount is h's observation count: its +Inf cumulative bucket (0 on nil).
func histCount(h *Histogram) int64 {
	if h == nil {
		return 0
	}
	_, cum := h.snapshot()
	return cum[len(cum)-1]
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_ms", nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || histCount(h) != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read zero")
	}
	if snaps := r.Snapshot(); snaps != nil {
		t.Errorf("nil registry snapshot = %v, want nil", snaps)
	}
	// Nil span / tracer round out the disabled path.
	var span *Span
	span.AddHop(Hop{Kind: "owner"})
	var tr *Tracer
	if tr.Sampled(1) {
		t.Error("nil tracer sampled a request")
	}
	tr.Emit(&Span{})
	if err := tr.Flush(); err != nil {
		t.Errorf("nil tracer flush: %v", err)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", L("source", "local"))
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	// Same (name, labels) resolves to the same instrument.
	if r.Counter("reqs_total", L("source", "local")) != c {
		t.Error("same series resolved to a different counter")
	}
	// Label order must not matter.
	a := r.Gauge("g", L("a", "1"), L("b", "2"))
	b := r.Gauge("g", L("b", "2"), L("a", "1"))
	if a != b {
		t.Error("label order changed series identity")
	}
	a.Set(5)
	if b.Value() != 5 {
		t.Errorf("gauge = %v, want 5", b.Value())
	}

	h := r.Histogram("lat_ms", []float64{1, 10, 100})
	for _, x := range []float64{0.5, 5, 50, 500} {
		h.Observe(x)
	}
	if histCount(h) != 4 {
		t.Errorf("hist count = %d, want 4", histCount(h))
	}
	if h.Sum() != 555.5 {
		t.Errorf("hist sum = %v, want 555.5", h.Sum())
	}
	bounds, cum := h.snapshot()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("snapshot shape = %d bounds, %d buckets", len(bounds), len(cum))
	}
	want := []int64{1, 2, 3, 4}
	for i, c := range cum {
		if c != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, c, want[i])
		}
	}
	// Boundary value lands in its bucket (le is inclusive).
	h.Observe(10)
	_, cum = h.snapshot()
	if cum[1] != 3 {
		t.Errorf("le=10 cumulative = %d, want 3 (bound inclusive)", cum[1])
	}
	// NaN is skipped: it lands in no bucket and does not poison the sum.
	h.Observe(math.NaN())
	h.Observe(2)
	_, cum = h.snapshot()
	if histCount(h) != 6 || h.Sum() != 567.5 || cum[3] != 6 {
		t.Errorf("after NaN then 2: count=%d sum=%v +Inf cumulative=%d, want 6, 567.5 and 6",
			histCount(h), h.Sum(), cum[3])
	}
}

// TestKindMismatchIsDetached: re-registering a series under a different kind
// must not corrupt the original; the caller gets a detached instrument.
func TestKindMismatchIsDetached(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(7)
	g := r.Gauge("x")
	g.Set(99)
	if c.Value() != 7 {
		t.Errorf("counter corrupted by kind mismatch: %d", c.Value())
	}
	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Kind != "counter" || snaps[0].Value != 7 {
		t.Errorf("snapshot after mismatch = %+v", snaps)
	}
}

func TestSnapshotSortedAndLabelled(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", L("s", "2")).Inc()
	r.Counter("b_total", L("s", "1")).Inc()
	r.Counter("a_total").Inc()
	snaps := r.Snapshot()
	got := make([]string, len(snaps))
	for i, s := range snaps {
		got[i] = s.Name + s.LabelString()
	}
	want := []string{"a_total", `b_total{s="1"}`, `b_total{s="2"}`}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("snapshot order = %v, want %v", got, want)
	}
}

// TestPrometheusLabelEscaping: label values containing the three characters
// the Prometheus text format escapes (newline, double quote, backslash) must
// render escaped — and round-trip through the recorder's series-key parser,
// so a recorded series with hostile labels stays addressable.
func TestPrometheusLabelEscaping(t *testing.T) {
	cases := []struct {
		name  string
		value string
		want  string // escaped form inside the exposition line
	}{
		{"newline", "a\nb", `a\nb`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"backslash", `C:\tmp`, `C:\\tmp`},
		{"mixed", "\\\"\n", `\\\"\n`},
	}
	for _, tc := range cases {
		r := NewRegistry()
		r.Counter("starcdn_test_events_total", L("path", tc.value)).Inc()
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		line := `starcdn_test_events_total{path="` + tc.want + `"} 1`
		if !strings.Contains(b.String(), line) {
			t.Errorf("%s: exposition lacks %q:\n%s", tc.name, line, b.String())
		}
		// Exactly one line, no raw newline splitting the sample line.
		for _, l := range strings.Split(strings.TrimSpace(b.String()), "\n") {
			if strings.HasPrefix(l, "starcdn_test_events_total{") &&
				!strings.HasSuffix(l, "} 1") {
				t.Errorf("%s: sample line broken by unescaped character: %q", tc.name, l)
			}
		}
	}
}

// TestHistogramInfOnlyBucket: a histogram built with zero finite bounds still
// exposes a consistent +Inf bucket, count, and sum.
func TestHistogramInfOnlyBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("starcdn_test_latency_ms", []float64{})
	h.Observe(3)
	h.Observe(4000)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`starcdn_test_latency_ms_bucket{le="+Inf"} 2`,
		"starcdn_test_latency_ms_sum 4003",
		"starcdn_test_latency_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("+Inf-only exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "starcdn_test_latency_ms_bucket") != 1 {
		t.Errorf("+Inf-only histogram exposed extra buckets:\n%s", out)
	}
}

// TestHistogramExpositionConsistency: the _count row must equal the +Inf
// cumulative bucket and the sum of observations, including after boundary
// and tail observations — the invariant scrapers rely on when computing
// histogram_quantile.
func TestHistogramExpositionConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("starcdn_test_latency_ms", []float64{1, 10, 100}, L("op", "get"))
	for _, x := range []float64{0.1, 1, 1.0001, 10, 99.9, 100, 101, 1e9} {
		h.Observe(x)
	}
	snap := r.Snapshot()[0]
	if snap.Kind != "histogram" {
		t.Fatalf("snapshot kind = %s", snap.Kind)
	}
	if got := snap.HistCumulative[len(snap.HistCumulative)-1]; got != snap.HistCount {
		t.Errorf("+Inf cumulative %d != count %d", got, snap.HistCount)
	}
	if snap.HistCount != 8 {
		t.Errorf("count = %d, want 8", snap.HistCount)
	}
	// Cumulative rows are monotone non-decreasing.
	for i := 1; i < len(snap.HistCumulative); i++ {
		if snap.HistCumulative[i] < snap.HistCumulative[i-1] {
			t.Fatalf("cumulative not monotone: %v", snap.HistCumulative)
		}
	}
	// Inclusive upper bounds: le=1 holds 0.1 and 1; le=10 adds 1.0001 and 10.
	if snap.HistCumulative[0] != 2 || snap.HistCumulative[1] != 4 {
		t.Errorf("cumulative = %v, want [2 4 6 8]", snap.HistCumulative)
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Labelled histograms interleave their own labels with le.
	for _, want := range []string{
		`starcdn_test_latency_ms_bucket{op="get",le="1"} 2`,
		`starcdn_test_latency_ms_bucket{op="get",le="+Inf"} 8`,
		`starcdn_test_latency_ms_count{op="get"} 8`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}

// TestHistogramQuantileEdgeSamples: quantiles over registry snapshots with
// zero and one observation — the cases a naive interpolation divides by zero
// on.
func TestHistogramQuantileEdgeSamples(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("starcdn_test_latency_ms", []float64{1, 10})

	toCounts := func() (bounds []float64, counts []int64) {
		snap := r.Snapshot()[0]
		counts = make([]int64, len(snap.HistCumulative))
		prev := int64(0)
		for i, c := range snap.HistCumulative {
			counts[i] = c - prev
			prev = c
		}
		return snap.HistBounds, counts
	}

	// Zero samples: NaN at every quantile.
	bounds, counts := toCounts()
	for _, q := range []float64{0, 0.5, 1} {
		if got := HistQuantile(bounds, counts, q); !math.IsNaN(got) {
			t.Errorf("empty histogram q=%v = %v, want NaN", q, got)
		}
	}

	// One sample in the middle bucket: q=0 pins its lower edge, q=1 its
	// upper bound, q=0.5 lands between.
	h.Observe(5)
	bounds, counts = toCounts()
	if got := HistQuantile(bounds, counts, 0); got != 1 {
		t.Errorf("single-sample q=0 = %v, want 1", got)
	}
	if got := HistQuantile(bounds, counts, 1); got != 10 {
		t.Errorf("single-sample q=1 = %v, want 10", got)
	}
	if got := HistQuantile(bounds, counts, 0.5); got <= 1 || got >= 10 {
		t.Errorf("single-sample q=0.5 = %v, want inside (1,10)", got)
	}
}

// TestConcurrentUpdates exercises the atomic instruments from many
// goroutines; run under -race this is the registry's thread-safety proof.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c_total")
			g := r.Gauge("g")
			h := r.Histogram("h_ms", nil)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(1)
				h.Observe(float64(i % 7))
				if i%100 == 0 {
					r.Snapshot() // concurrent scrape
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != 1 {
		t.Errorf("gauge = %v, want 1", got)
	}
	if got := histCount(r.Histogram("h_ms", nil)); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramObserveEach: a batch ends the histogram exactly where the
// same samples observed one at a time do — bucket counts, count, and the
// sum to the bit, since it is added in order — on a geometry small enough
// for the stack buffer and one larger than it, with NaN skipped. Concurrent
// batches (the sum's retry path) lose nothing.
func TestHistogramObserveEach(t *testing.T) {
	var xs []float64
	for i := 0; i < 1000; i++ {
		xs = append(xs, 0.1*float64(i%37), 1e16/float64(i+1), 3.3)
	}
	xs[17] = math.NaN()
	var wide []float64
	for i := 1; i <= 40; i++ {
		wide = append(wide, float64(i*i))
	}
	for _, bounds := range [][]float64{{1, 10, 100}, wide} {
		r := NewRegistry()
		one := r.Histogram("one_ms", bounds)
		batch := r.Histogram("batch_ms", bounds)
		for _, x := range xs {
			one.Observe(x)
		}
		for lo := 0; lo < len(xs); lo += 97 {
			b := xs[lo:min(lo+97, len(xs))]
			batch.ObserveEach(len(b), func(i int) float64 { return b[i] })
		}
		_, cumOne := one.snapshot()
		_, cumBatch := batch.snapshot()
		if histCount(one) != histCount(batch) || math.Float64bits(one.Sum()) != math.Float64bits(batch.Sum()) {
			t.Errorf("%d bounds: batch count %d sum %v, one at a time %d %v",
				len(bounds), histCount(batch), batch.Sum(), histCount(one), one.Sum())
		}
		for i := range cumOne {
			if cumOne[i] != cumBatch[i] {
				t.Errorf("%d bounds: bucket %d holds %d, one at a time %d", len(bounds), i, cumBatch[i], cumOne[i])
			}
		}
	}

	h := NewRegistry().Histogram("conc_ms", []float64{1, 10, 100})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 500; k++ {
				h.ObserveEach(8, func(i int) float64 { return float64(i) })
			}
		}()
	}
	wg.Wait()
	if histCount(h) != 4*500*8 || h.Sum() != 4*500*28 {
		t.Errorf("concurrent batches: count %d sum %v, want %d %d", histCount(h), h.Sum(), 4*500*8, 4*500*28)
	}
}
