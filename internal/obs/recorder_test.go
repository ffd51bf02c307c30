package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRecorderTickAt checks the sim-time driver: snapshots land on epoch
// boundaries, at most one per call, and quiet stretches skip epochs.
func TestRecorderTickAt(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("starcdn_test_events_total")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 10})

	c.Inc()
	rec.TickAt(3) // before the first boundary: no snapshot
	if got := rec.Epochs(); got != 0 {
		t.Fatalf("Epochs before first boundary = %d, want 0", got)
	}
	rec.TickAt(12) // crosses t=10
	c.Add(4)
	rec.TickAt(12.5) // same epoch: no snapshot
	rec.TickAt(47)   // crosses t=40 (epochs 20 and 30 were quiet: skipped)
	if got := rec.Epochs(); got != 2 {
		t.Fatalf("Epochs = %d, want 2", got)
	}

	pts := rec.Window("starcdn_test_events_total", 0)
	if len(pts) != 2 {
		t.Fatalf("Window returned %d points, want 2: %v", len(pts), pts)
	}
	// Timestamps are boundary-stamped, not call-stamped.
	if pts[0].T != 10 || pts[1].T != 40 {
		t.Errorf("epoch times = %v, %v; want 10, 40", pts[0].T, pts[1].T)
	}
	if pts[0].V != 1 || pts[1].V != 5 {
		t.Errorf("values = %v, %v; want 1, 5", pts[0].V, pts[1].V)
	}
}

// TestRecorderSeal checks the end-of-run flush snapshots off-boundary.
func TestRecorderSeal(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("starcdn_test_events_total")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 10})
	c.Add(7)
	rec.Seal(13.7)
	pts := rec.Window("starcdn_test_events_total", 0)
	if len(pts) != 1 || pts[0].T != 13.7 || pts[0].V != 7 {
		t.Fatalf("after Seal(13.7): %v, want [{13.7 7}]", pts)
	}
	// Sealing advances the boundary: a tick inside the sealed epoch is a no-op.
	rec.TickAt(14)
	if got := rec.Epochs(); got != 1 {
		t.Errorf("tick inside sealed epoch took a snapshot (epochs=%d)", got)
	}
}

// TestRecorderResume drives one recorder through three 600 s runs of an
// event clock that starts at zero, each sealed at its last event, as
// sim.Run does: every run records one point per 15 s epoch it spans, and
// each run's points follow the last run's.
func TestRecorderResume(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("starcdn_test_events_total")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 15})
	for run, wantOrigin := range []float64{0, 600, 1200} {
		origin := rec.Resume()
		if origin != wantOrigin {
			t.Fatalf("run %d: origin %v, want %v", run, origin, wantOrigin)
		}
		for ts := 0.5; ts < 600; ts++ {
			if rec.Due(origin + ts) {
				rec.TickAt(origin + ts)
			}
			c.Inc()
		}
		rec.Seal(origin + 599.5)
		if got, want := rec.Epochs(), int64(40*(run+1)); got != want {
			t.Errorf("after run %d: %d epochs, want %d", run, got, want)
		}
	}
	pts := rec.Window("starcdn_test_events_total", 0)
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatalf("point %d at t=%v follows t=%v", i, pts[i].T, pts[i-1].T)
		}
	}
	if last := pts[len(pts)-1]; last.T != 1799.5 || last.V != 1800 {
		t.Errorf("last point %+v, want {T:1799.5 V:1800}", last)
	}
}

// TestRecorderRingWrap fills the ring past capacity and checks only the
// newest epochs survive, in order.
func TestRecorderRingWrap(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("starcdn_test_value")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1, Capacity: 4})
	for i := 1; i <= 10; i++ {
		g.Set(float64(i))
		rec.TickAt(float64(i))
	}
	pts := rec.Window("starcdn_test_value", 0)
	if len(pts) != 4 {
		t.Fatalf("window after wrap holds %d points, want 4", len(pts))
	}
	for i, p := range pts {
		want := float64(7 + i)
		if p.T != want || p.V != want {
			t.Errorf("pts[%d] = %+v, want T=V=%v", i, p, want)
		}
	}
}

// TestRecorderRetainedAfterWrap: past its capacity a recorder keeps counting
// epochs, but Retained reports only what the ring still holds — what a
// /timeseries.json query can return.
func TestRecorderRetainedAfterWrap(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("starcdn_test_value")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	const ticks = DefaultRecorderCapacity + 88
	for i := 1; i <= ticks; i++ {
		g.Set(float64(i))
		rec.TickAt(float64(i))
		if want := min(i, DefaultRecorderCapacity); rec.Retained() != want {
			t.Fatalf("after %d ticks Retained = %d, want %d", i, rec.Retained(), want)
		}
	}
	if rec.Epochs() != ticks {
		t.Errorf("Epochs = %d, want %d", rec.Epochs(), ticks)
	}
	pts := rec.Window("starcdn_test_value", 0)
	if len(pts) != rec.Retained() || pts[0].T != ticks-DefaultRecorderCapacity+1 {
		t.Errorf("window holds %d points from T=%v, want %d from T=%d",
			len(pts), pts[0].T, rec.Retained(), ticks-DefaultRecorderCapacity+1)
	}
	var nilRec *Recorder
	if nilRec.Retained() != 0 {
		t.Error("nil recorder retains epochs")
	}
}

// TestRecorderLateSeries checks a series born mid-flight is NaN-backfilled
// for the epochs before its first appearance.
func TestRecorderLateSeries(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("starcdn_test_early_total").Inc()
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	rec.TickAt(1)
	reg.Counter("starcdn_test_late_total").Inc()
	rec.TickAt(2)
	pts := rec.Window("starcdn_test_late_total", 0)
	if len(pts) != 2 {
		t.Fatalf("late series has %d points, want 2", len(pts))
	}
	if !math.IsNaN(pts[0].V) {
		t.Errorf("pre-birth epoch = %v, want NaN", pts[0].V)
	}
	if pts[1].V != 1 {
		t.Errorf("post-birth epoch = %v, want 1", pts[1].V)
	}
}

// TestRecorderWindowAndDelta checks window clipping and cumulative deltas.
func TestRecorderWindowAndDelta(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("starcdn_test_events_total")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	for i := 1; i <= 5; i++ {
		c.Add(10)
		rec.TickAt(float64(i))
	}
	// Window of 2s from latest (t=5): strictly after t=3, so epochs 4 and 5.
	pts := rec.Window("starcdn_test_events_total", 2)
	if len(pts) != 2 || pts[0].T != 4 || pts[1].T != 5 {
		t.Fatalf("2s window = %v, want epochs 4 and 5", pts)
	}
	// Increments inside (3,5]: epochs 4 and 5 added 10 each, and the
	// baseline is the last pre-window sample (t=3, value 30).
	d, ok := rec.Delta("starcdn_test_events_total", 2)
	if !ok || d != 20 {
		t.Errorf("Delta over 2s = %v,%v; want 20,true", d, ok)
	}
	// Full-history delta: the series was born inside retention, so its whole
	// value counts (baseline 0).
	d, ok = rec.Delta("starcdn_test_events_total", 0)
	if !ok || d != 50 {
		t.Errorf("Delta over all = %v,%v; want 50,true", d, ok)
	}
	if _, ok := rec.Delta("starcdn_test_missing_total", 0); ok {
		t.Error("Delta on unknown series reported ok")
	}
	// Single-sample delta is the sample itself (series born inside window).
	reg2 := NewRegistry()
	c2 := reg2.Counter("starcdn_test_one_total")
	rec2 := NewRecorder(reg2, RecorderOptions{EpochSec: 1})
	c2.Add(3)
	rec2.TickAt(1)
	if d, ok := rec2.Delta("starcdn_test_one_total", 60); !ok || d != 3 {
		t.Errorf("single-sample Delta = %v,%v; want 3,true", d, ok)
	}
}

// TestRecorderHistogramWindow checks histogram fan-out: bucket series are
// recorded per epoch and HistogramWindow de-cumulates them into per-bucket
// counts restricted to the window.
func TestRecorderHistogramWindow(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("starcdn_test_latency_ms", []float64{1, 10, 100})
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})

	h.Observe(0.5) // bucket le=1
	h.Observe(5)   // bucket le=10
	rec.TickAt(1)
	h.Observe(50)  // bucket le=100
	h.Observe(500) // +Inf
	rec.TickAt(2)

	bounds, counts, ok := rec.HistogramWindow("starcdn_test_latency_ms", 0)
	if !ok {
		t.Fatal("HistogramWindow not ok")
	}
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds=%v counts=%v, want 3 bounds and 4 buckets", bounds, counts)
	}
	want := []int64{1, 1, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Errorf("counts[%d] = %d, want %d (all %v)", i, c, want[i], counts)
		}
	}
	// A 1s window sees only epoch 2's samples: just the tail buckets.
	_, counts, ok = rec.HistogramWindow("starcdn_test_latency_ms", 1)
	if !ok {
		t.Fatal("1s HistogramWindow not ok")
	}
	if counts[0] != 0 || counts[1] != 0 || counts[2] != 1 || counts[3] != 1 {
		t.Errorf("1s window counts = %v, want [0 0 1 1]", counts)
	}
	if _, _, ok := rec.HistogramWindow("starcdn_test_missing", 0); ok {
		t.Error("HistogramWindow on unknown key reported ok")
	}
}

// TestRecorderLabelledHistogram checks HistogramWindow on a histogram
// carrying labels, whose _bucket series append le after them.
func TestRecorderLabelledHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("starcdn_test_latency_ms", []float64{1, 10}, L("op", "get"))
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	h.Observe(5)
	rec.TickAt(1)
	key := `starcdn_test_latency_ms{op="get"}`
	_, counts, ok := rec.HistogramWindow(key, 0)
	if !ok {
		t.Fatalf("HistogramWindow(%q) not ok; series = %v", key, rec.Series())
	}
	if counts[0] != 0 || counts[1] != 1 {
		t.Errorf("counts = %v, want [0 1 0]", counts)
	}
}

// TestHistQuantile exercises the interpolation convention and edge cases.
func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 10, 100}
	cases := []struct {
		name   string
		counts []int64
		q      float64
		want   float64
	}{
		{"median interpolates", []int64{10, 10, 0, 0}, 0.5, 1},
		{"p75 inside second bucket", []int64{10, 10, 0, 0}, 0.75, 5.5},
		{"q=1 hits bucket top", []int64{10, 10, 0, 0}, 1, 10},
		{"q=0 hits bucket bottom", []int64{0, 10, 0, 0}, 0, 1},
		{"+Inf answers highest finite bound", []int64{0, 0, 0, 5}, 0.99, 100},
		{"single sample q=0.5", []int64{0, 1, 0, 0}, 0.5, 5.5},
		{"clamped q>1", []int64{10, 0, 0, 0}, 2, 1},
		{"clamped q<0", []int64{10, 0, 0, 0}, -1, 0},
	}
	for _, tc := range cases {
		got := HistQuantile(bounds, tc.counts, tc.q)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: HistQuantile(q=%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
	if got := HistQuantile(bounds, []int64{0, 0, 0, 0}, 0.5); !math.IsNaN(got) {
		t.Errorf("zero samples: got %v, want NaN", got)
	}
	if got := HistQuantile(nil, []int64{5}, 0.5); !math.IsNaN(got) {
		t.Errorf("no bounds: got %v, want NaN", got)
	}
}

// TestRecorderNilSafe checks every method no-ops on a nil recorder.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.TickAt(1)
	r.Seal(2)
	r.OnEpoch(func(float64) {})
	stop := r.StartWall()
	stop()
	if r.EpochSec() != 0 || r.Epochs() != 0 || r.Series() != nil || r.Resume() != 0 || r.Due(1e9) {
		t.Error("nil recorder reported non-zero state")
	}
	if pts := r.Window("x", 0); pts != nil {
		t.Errorf("nil Window = %v", pts)
	}
	if _, ok := r.Delta("x", 0); ok {
		t.Error("nil Delta ok")
	}
	if _, _, ok := r.HistogramWindow("x", 0); ok {
		t.Error("nil HistogramWindow ok")
	}
}

// TestTimeseriesHandler checks /timeseries.json forms and parameter errors.
func TestTimeseriesHandler(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("starcdn_test_events_total")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	for i := 1; i <= 4; i++ {
		c.Add(int64(i)) // cumulative: 1, 3, 6, 10
		rec.TickAt(float64(i))
	}

	get := func(q string) (*httptest.ResponseRecorder, map[string]any) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/timeseries.json"+q, nil)
		w := httptest.NewRecorder()
		rec.handleTimeseries(w, req)
		var body map[string]any
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s: bad JSON: %v\n%s", q, err, w.Body.String())
			}
		}
		return w, body
	}

	w, body := get("")
	if w.Code != http.StatusOK {
		t.Fatalf("raw form status = %d", w.Code)
	}
	if body["epoch_sec"].(float64) != 1 || body["epochs"].(float64) != 4 {
		t.Errorf("header = %v", body)
	}
	series := body["series"].(map[string]any)
	if _, ok := series["starcdn_test_events_total"]; !ok {
		t.Fatalf("series missing counter: %v", series)
	}

	// delta form drops the first point and differences the rest.
	_, body = get("?form=delta&match=events")
	sd := body["series"].(map[string]any)["starcdn_test_events_total"].(map[string]any)
	vs := sd["v"].([]any)
	if len(vs) != 3 || vs[0].(float64) != 2 || vs[2].(float64) != 4 {
		t.Errorf("delta values = %v, want [2 3 4]", vs)
	}

	// rate form divides by dt (epoch 1s, so same values here).
	_, body = get("?form=rate&match=events")
	sr := body["series"].(map[string]any)["starcdn_test_events_total"].(map[string]any)
	vr := sr["v"].([]any)
	if len(vr) != 3 || vr[1].(float64) != 3 {
		t.Errorf("rate values = %v, want [2 3 4]", vr)
	}

	// match filters series out.
	_, body = get("?match=no_such_series")
	if n := len(body["series"].(map[string]any)); n != 0 {
		t.Errorf("match filter left %d series", n)
	}

	// Parameter errors are 400s.
	for _, q := range []string{"?form=wat", "?window=abc"} {
		if w, _ := get(q); w.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", q, w.Code)
		}
	}
}

// TestServeWithMountsRecorder checks the HTTP server exposes the recorder
// endpoints when (and only when) a recorder is configured.
func TestServeWithMountsRecorder(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	reg.Counter("starcdn_test_events_total").Inc()
	rec.TickAt(1)
	srv, err := ServeWith("127.0.0.1:0", ServeOptions{Registry: reg, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The listener mounts five endpoints (pprof is covered by
	// TestServeEndpoints); the two deleted renderings stay gone.
	for path, want := range map[string]int{
		"/timeseries.json": http.StatusOK,
		"/metrics":         http.StatusOK,
		"/metrics.json":    http.StatusOK,
		"/healthz":         http.StatusOK,
		"/dashboard":       http.StatusNotFound,
		"/popularity.json": http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s status = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Without a recorder the endpoints are absent.
	bare, err := ServeWith("127.0.0.1:0", ServeOptions{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	resp, err := http.Get("http://" + bare.Addr() + "/timeseries.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("recorderless /timeseries.json status = %d, want 404", resp.StatusCode)
	}
}
