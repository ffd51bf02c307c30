package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"starcdn/internal/obs/sketch"
)

// objNamer renders test keys as "obj-<id>", the shape of sim.PopObjectKey.
func objNamer(id uint64) string { return fmt.Sprintf("obj-%d", id) }

// noEx is the exemplar of an untraced update.
var noEx sketch.Exemplar

// TestTopKExposition: a TopK instrument emits bounded-cardinality rank rows
// plus a samples counter on the Prometheus exposition, and the full keyed
// entry list on the JSON exposition.
func TestTopKExposition(t *testing.T) {
	r := NewRegistry()
	tk := r.TopK("starcdn_popularity_objects", 4, L("pipeline", "sim"))
	tk.SetNamer(objNamer)
	for i := 0; i < 10; i++ {
		tk.ObserveIDEx(1, 1, noEx)
	}
	tk.ObserveIDEx(2, 3, noEx)
	tk.ObserveIDEx(3, 1, noEx)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE starcdn_popularity_objects_topk gauge",
		"# TYPE starcdn_popularity_objects_samples counter",
		`starcdn_popularity_objects_topk{pipeline="sim",rank="1"} 10`,
		`starcdn_popularity_objects_topk{pipeline="sim",rank="2"} 3`,
		`starcdn_popularity_objects_topk{pipeline="sim",rank="3"} 1`,
		`starcdn_popularity_objects_samples{pipeline="sim"} 14`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q\n%s", want, out)
		}
	}
	// Object keys must never become label values on the Prometheus side.
	if strings.Contains(out, "obj-1") {
		t.Errorf("object key leaked into prometheus exposition:\n%s", out)
	}

	var jb bytes.Buffer
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]struct {
		Kind    string      `json:"kind"`
		N       int64       `json:"n"`
		Entries []TopKEntry `json:"entries"`
	}
	if err := json.Unmarshal(jb.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON exposition: %v\n%s", err, jb.String())
	}
	s, ok := doc[`starcdn_popularity_objects{pipeline="sim"}`]
	if !ok {
		t.Fatalf("JSON exposition missing topk series: %s", jb.String())
	}
	if s.Kind != "topk" || s.N != 14 || len(s.Entries) != 3 {
		t.Fatalf("topk JSON = kind=%q n=%d entries=%d, want topk/14/3", s.Kind, s.N, len(s.Entries))
	}
	if s.Entries[0].Key != "obj-1" || s.Entries[0].Count != 10 {
		t.Errorf("rank-1 entry = %+v, want obj-1 count 10", s.Entries[0])
	}
}

// TestTopKLabelEscaping: hostile label values on the new instrument kinds
// render escaped on the Prometheus exposition, exactly like the scalar
// kinds, and the derived rank/q series keys stay parseable.
func TestTopKLabelEscaping(t *testing.T) {
	r := NewRegistry()
	hostile := "a\nb\"c\\d"
	r.TopK("starcdn_popularity_objects", 2, L("path", hostile)).ObserveIDEx(1, 1, noEx)
	sk := r.Sketch("starcdn_sketch_serve_latency_ms", 0, L("path", hostile))
	sk.Observe(5)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const escaped = `path="a\nb\"c\\d"`
	out := b.String()
	for _, want := range []string{
		`starcdn_popularity_objects_topk{` + escaped + `,rank="1"} 1`,
		`starcdn_popularity_objects_samples{` + escaped + `} 1`,
		`starcdn_sketch_serve_latency_ms_q{` + escaped + `,q="0.5"} `,
		`starcdn_sketch_serve_latency_ms_samples{` + escaped + `} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(l, "path=") && strings.Contains(l, "a\nb") {
			t.Errorf("raw newline broke sample line %q", l)
		}
	}
}

// TestSketchEmptyExposition: a sketch that never observed anything exposes
// its samples counter at zero, no quantile rows (NaN is not a valid
// Prometheus sample value here), and null min/max on the JSON side — and an
// empty top-K exposes no rank rows.
func TestSketchEmptyExposition(t *testing.T) {
	r := NewRegistry()
	r.Sketch("starcdn_sketch_serve_latency_ms", 0)
	r.TopK("starcdn_popularity_objects", 4)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "_q{") {
		t.Errorf("empty sketch emitted quantile rows:\n%s", out)
	}
	if strings.Contains(out, "_topk{") {
		t.Errorf("empty topk emitted rank rows:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN leaked into prometheus exposition:\n%s", out)
	}
	for _, want := range []string{
		"starcdn_sketch_serve_latency_ms_samples 0",
		"starcdn_popularity_objects_samples 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	var jb bytes.Buffer
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]struct {
		Kind  string   `json:"kind"`
		Count int64    `json:"count"`
		Min   *float64 `json:"min"`
		Max   *float64 `json:"max"`
	}
	if err := json.Unmarshal(jb.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON exposition: %v\n%s", err, jb.String())
	}
	sk := doc["starcdn_sketch_serve_latency_ms"]
	if sk.Kind != "sketch" || sk.Count != 0 || sk.Min != nil || sk.Max != nil {
		t.Errorf("empty sketch JSON = %+v, want count 0 and null min/max", sk)
	}
}

// TestTopKEvictionChurnAtCapacity: with capacity far below the key space,
// the instrument keeps serving rank rows whose error bounds hold (true count
// within [Count-Err, Count]) and whose total stream weight N stays exact.
func TestTopKEvictionChurnAtCapacity(t *testing.T) {
	r := NewRegistry()
	tk := r.TopK("starcdn_popularity_objects", 8)
	tk.SetNamer(objNamer)
	// 200 distinct keys; key i observed i times (total 20100). The heavy
	// tail (193..200 observations) must survive the churn of 192 lighter
	// keys cycling through the 8 tracked slots.
	for count := 1; count <= 200; count++ {
		for j := 0; j < count; j++ {
			tk.ObserveIDEx(uint64(count), 1, noEx)
		}
	}
	if got := tk.N(); got != 20100 {
		t.Fatalf("N = %d, want 20100", got)
	}
	top := tk.Top()
	if len(top) != 8 {
		t.Fatalf("len(top) = %d, want 8", len(top))
	}
	for _, e := range top {
		var truth int64
		if _, err := fmt.Sscanf(e.Key, "obj-%d", &truth); err != nil {
			t.Fatalf("unexpected key %q", e.Key)
		}
		if e.Count < truth || e.Count-e.Err > truth {
			t.Errorf("%s: truth %d outside [%d, %d]", e.Key, truth, e.Count-e.Err, e.Count)
		}
	}
	// The single heaviest key (guaranteed tracked: 200 > N/k) ranks first.
	if top[0].Key != "obj-200" {
		t.Errorf("rank-1 key = %s, want obj-200", top[0].Key)
	}
	// Exposition stays bounded at promTopKRanks rows even at capacity 8.
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "starcdn_popularity_objects_topk{"); n != promTopKRanks {
		t.Errorf("%d rank rows exposed, want %d", n, promTopKRanks)
	}
}

// TestPopularityEndpoint: /metrics.json is the "which objects are hot, and
// give me a trace of one" endpoint — it serves the full keyed top-K entries
// and the sketch quantiles with their trace exemplars, the detail the bounded
// Prometheus rows omit.
func TestPopularityEndpoint(t *testing.T) {
	r := NewRegistry()
	tk := r.TopK("starcdn_popularity_objects", 8)
	tk.SetNamer(objNamer)
	tk.ObserveIDEx(1, 5, sketch.Exemplar{TraceID: "deadbeef", Req: 3, Value: 100})
	tk.ObserveIDEx(2, 2, noEx)
	tk.ObserveIDEx(3, 1, noEx)
	sk := r.Sketch("starcdn_sketch_serve_latency_ms", 0)
	sk.ObserveEx(4, sketch.Exemplar{TraceID: "cafef00d", Req: 1, Value: 4})
	sk.Observe(40)

	s, err := ServeWith("127.0.0.1:0", ServeOptions{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, body := get(t, "http://"+s.Addr()+"/metrics.json")
	var doc struct {
		Objects struct {
			Kind    string      `json:"kind"`
			N       int64       `json:"n"`
			Entries []TopKEntry `json:"entries"`
		} `json:"starcdn_popularity_objects"`
		Latency struct {
			Kind      string                     `json:"kind"`
			Count     int64                      `json:"count"`
			Quantiles map[string]float64         `json:"quantiles"`
			Exemplars map[string]sketch.Exemplar `json:"exemplars"`
		} `json:"starcdn_sketch_serve_latency_ms"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad /metrics.json: %v\n%s", err, body)
	}
	if o := doc.Objects; o.Kind != "topk" || o.N != 8 || len(o.Entries) != 3 {
		t.Fatalf("topk = kind=%q n=%d entries=%d, want topk/8/3", o.Kind, o.N, len(o.Entries))
	}
	if e := doc.Objects.Entries[0]; e.Key != "obj-1" || e.Count != 5 || e.Exemplar.TraceID != "deadbeef" {
		t.Errorf("rank-1 entry = %+v, want obj-1 ×5 with exemplar deadbeef", e)
	}
	if l := doc.Latency; l.Kind != "sketch" || l.Count != 2 || len(l.Quantiles) != len(SketchQuantiles) {
		t.Errorf("sketch = %+v, want count 2 and %d quantiles", l, len(SketchQuantiles))
	}
	if ex := doc.Latency.Exemplars["0.5"]; ex.TraceID != "cafef00d" {
		t.Errorf("p50 exemplar = %+v, want trace cafef00d", ex)
	}
}

// TestRecorderTopKSketchRings: the flight recorder fans a topk instrument
// out into per-rank rings plus a samples ring, and a sketch into per-quantile
// rings plus samples, so /timeseries.json can plot hot-set churn over time.
func TestRecorderTopKSketchRings(t *testing.T) {
	r := NewRegistry()
	rec := NewRecorder(r, RecorderOptions{EpochSec: 1})
	tk := r.TopK("starcdn_popularity_objects", 4)
	sk := r.Sketch("starcdn_sketch_serve_latency_ms", 0)
	for i := 1; i <= 3; i++ {
		tk.ObserveIDEx(1, 2, noEx) // hot
		tk.ObserveIDEx(2, 1, noEx) // warm
		sk.Observe(float64(10 * i))
		rec.TickAt(float64(i))
	}
	keys := rec.Series()
	wantKeys := []string{
		`starcdn_popularity_objects_topk{rank="1"}`,
		`starcdn_popularity_objects_topk{rank="2"}`,
		"starcdn_popularity_objects_samples",
		`starcdn_sketch_serve_latency_ms_q{q="0.5"}`,
		`starcdn_sketch_serve_latency_ms_q{q="0.99"}`,
		"starcdn_sketch_serve_latency_ms_samples",
	}
	have := make(map[string]bool, len(keys))
	for _, k := range keys {
		have[k] = true
	}
	for _, k := range wantKeys {
		if !have[k] {
			t.Errorf("recorder missing ring %q (have %v)", k, keys)
		}
	}
	// The rank-1 ring carries the hot key's running count.
	pts := rec.Window(`starcdn_popularity_objects_topk{rank="1"}`, 0)
	if len(pts) != 3 || pts[2].V != 6 {
		t.Errorf("rank-1 ring = %+v, want 3 points ending at 6", pts)
	}
	// Sample rings are cumulative and monotone.
	if d, ok := rec.Delta("starcdn_popularity_objects_samples", 0); !ok || d != 9 {
		t.Errorf("samples delta = %v (ok=%v), want 9", d, ok)
	}
	// Unranked slots (rank 3, 4) record NaN, which the JSON handler must
	// render as nulls, not 500s.
	req := httptest.NewRequest(http.MethodGet, "/timeseries.json?match=rank", nil)
	w := httptest.NewRecorder()
	rec.handleTimeseries(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("timeseries status = %d", w.Code)
	}
	var body struct {
		Series map[string]struct {
			V []*float64 `json:"v"`
		} `json:"series"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	r3 := body.Series[`starcdn_popularity_objects_topk{rank="3"}`]
	if len(r3.V) != 3 {
		t.Fatalf("rank-3 ring = %+v, want 3 points", r3)
	}
	for i, v := range r3.V {
		if v != nil {
			t.Errorf("rank-3 point %d = %v, want null (no third entry)", i, *v)
		}
	}
}

// TestInstrumentsConcurrentObserveAndScrape: the sketches hold no lock of
// their own, so TopK.mu and Sketch.mu are all that stands between
// concurrent observers and a scraper reading Top()/Quantile()/Snapshot()
// and driving recorder epochs.
// Run under -race; the totals must also come out exact.
func TestInstrumentsConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	tk := r.TopK("starcdn_popularity_objects", 8)
	sk := r.Sketch("starcdn_sketch_serve_latency_ms", 0)
	rec := NewRecorder(r, RecorderOptions{EpochSec: 1, Capacity: 16})

	const writers, perWriter = 4, 4000
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for epoch := 1.0; ; epoch++ {
			select {
			case <-stop:
				return
			default:
			}
			if top := tk.Top(); len(top) > 8 {
				t.Errorf("Top() returned %d entries from a k=8 instrument", len(top))
			}
			_, _, _ = tk.N(), sk.Quantile(0.99), sk.Count()
			r.Snapshot()
			rec.Seal(epoch)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ex := sketch.Exemplar{TraceID: fmt.Sprintf("w%d", w), Req: int64(i)}
				tk.ObserveIDEx(uint64(i%50), 1, ex)
				sk.ObserveEx(float64(1+i%200), ex)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped

	const want = writers * perWriter
	if tk.N() != want || sk.Count() != want {
		t.Errorf("after concurrent updates N = %d, Count = %d, want %d each", tk.N(), sk.Count(), want)
	}
}
