package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServeHealthzRuntimeLine: with a runtime bridge configured, /healthz
// carries the compact runtime line alongside the health payload.
func TestServeHealthzRuntimeLine(t *testing.T) {
	reg := NewRegistry()
	s, err := ServeWith("127.0.0.1:0", ServeOptions{
		Registry: reg,
		Health:   func() Health { return Health{OK: true, Live: 1} },
		Runtime:  NewRuntimeBridge(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	code, body := get(t, "http://"+s.Addr()+"/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d\n%s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"goroutines=", "heap=", "total=", "gc=", "pause=", "sched_p99="} {
		if !strings.Contains(h.Runtime, key) {
			t.Errorf("runtime line missing %q: %q", key, h.Runtime)
		}
	}

	// Without a bridge the field stays absent, keeping old payloads stable.
	s2, err := ServeWith("127.0.0.1:0", ServeOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if _, body := get(t, "http://"+s2.Addr()+"/healthz"); strings.Contains(body, `"runtime"`) {
		t.Errorf("bridge-less /healthz grew a runtime field: %s", body)
	}
}

// TestTimeseriesPhaseAndRuntimeSeries: /timeseries.json serves the new
// series families — ?match=starcdn_phase_ isolates the phase histograms'
// fan-out, and delta/rate transforms apply to the bridge gauges.
func TestTimeseriesPhaseAndRuntimeSeries(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	p := NewSimPhases(reg)
	p.BindRecorder(rec)
	rt := NewRuntimeBridge(reg)
	rt.BindRecorder(rec)

	for i := 1; i <= 3; i++ {
		p.accum[PhaseSimCache].Store(int64(i) * 1e9)
		rec.TickAt(float64(i))
	}

	get := func(q string) map[string]any {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/timeseries.json"+q, nil)
		w := httptest.NewRecorder()
		rec.handleTimeseries(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s status = %d\n%s", q, w.Code, w.Body.String())
		}
		var body map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: bad JSON: %v", q, err)
		}
		return body
	}

	// match=starcdn_phase_ isolates the phase family.
	series := get("?match=starcdn_phase_")["series"].(map[string]any)
	if len(series) == 0 {
		t.Fatal("no phase series matched")
	}
	for key := range series {
		if !strings.Contains(key, "starcdn_phase_") {
			t.Errorf("match leaked non-phase series %q", key)
		}
	}
	sumKey := `starcdn_phase_stage_seconds{pipeline="sim",stage="cache"}_sum`
	sd, ok := series[sumKey].(map[string]any)
	if !ok {
		t.Fatalf("series %q missing; got %d phase series", sumKey, len(series))
	}
	vs := sd["v"].([]any)
	if len(vs) != 3 || vs[2].(float64) != 6 {
		t.Errorf("cache _sum ring = %v, want cumulative [1 3 6]", vs)
	}

	// delta on the cumulative-gauge family differences per epoch.
	series = get("?form=delta&match=starcdn_go_gc_cycles")["series"].(map[string]any)
	gd, ok := series["starcdn_go_gc_cycles"].(map[string]any)
	if !ok {
		t.Fatalf("gc-cycles delta series missing: %v", series)
	}
	if n := len(gd["v"].([]any)); n != 2 {
		t.Errorf("delta over 3 epochs has %d points, want 2", n)
	}

	// rate applies to the same gauges (per-second change).
	series = get("?form=rate&match=starcdn_go_")["series"].(map[string]any)
	if _, ok := series["starcdn_go_goroutines"]; !ok {
		t.Errorf("rate form dropped the goroutine gauge: %v", series)
	}
}
