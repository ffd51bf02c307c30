package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTimeseriesFreshRecorder: a recorder that has never ticked — and one
// holding only a single epoch — must serve every form of /timeseries.json
// with 200 and valid JSON, with unobserved series rendered as nulls, never
// a 500 or a bare NaN token.
func TestTimeseriesFreshRecorder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("starcdn_test_events_total")
	reg.Gauge("starcdn_test_depth") // never Set: snapshots as 0
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})

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

	for _, q := range []string{"", "?form=delta", "?form=rate", "?window=10"} {
		w, body := get(q)
		if w.Code != http.StatusOK {
			t.Fatalf("fresh recorder %q status = %d\n%s", q, w.Code, w.Body.String())
		}
		if body["epochs"].(float64) != 0 {
			t.Errorf("fresh recorder %q epochs = %v", q, body["epochs"])
		}
		if strings.Contains(w.Body.String(), "NaN") {
			t.Errorf("fresh recorder %q emitted NaN:\n%s", q, w.Body.String())
		}
	}

	// One tick: every series holds exactly one sample, which delta/rate forms
	// collapse to empty (len < 2) rather than dividing by a zero dt.
	rec.TickAt(1)
	for _, q := range []string{"", "?form=delta", "?form=rate"} {
		w, body := get(q)
		if w.Code != http.StatusOK {
			t.Fatalf("single-epoch %q status = %d", q, w.Code)
		}
		series := body["series"].(map[string]any)
		s, ok := series["starcdn_test_events_total"].(map[string]any)
		if !ok {
			// delta/rate forms may drop single-sample series entirely; that
			// is fine as long as the document itself is well-formed.
			continue
		}
		vs := s["v"].([]any)
		if q == "" && len(vs) != 1 {
			t.Errorf("raw single-epoch v = %v, want one point", vs)
		}
		if q != "" && len(vs) != 0 {
			t.Errorf("%s single-epoch v = %v, want empty", q, vs)
		}
	}

	// A topk instrument with unfilled ranks records NaN points; the handler
	// must render them as JSON nulls.
	observeID(reg.TopK("starcdn_popularity_objects", 4), 1, 1, noEx)
	rec.TickAt(2)
	w, body := get("?match=rank")
	if w.Code != http.StatusOK {
		t.Fatalf("NaN-bearing series status = %d", w.Code)
	}
	if strings.Contains(w.Body.String(), "NaN") {
		t.Errorf("NaN leaked into JSON:\n%s", w.Body.String())
	}
	series := body["series"].(map[string]any)
	r2 := series[`starcdn_popularity_objects_topk{rank="2"}`].(map[string]any)
	for _, v := range r2["v"].([]any) {
		if v != nil {
			t.Errorf("unfilled rank point = %v, want null", v)
		}
	}
}

// TestDeltaAcrossCounterReset: Delta must follow the increase() convention
// across a counter reset — the motivating scenario being a replay server
// killed and revived mid-window, whose re-registered meters restart from
// zero. A decrease between adjacent epochs counts the post-reset value as
// that epoch's accrual, so the windowed delta stays monotone non-negative.
func TestDeltaAcrossCounterReset(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("starcdn_test_restarting_total")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	// Epochs: 5, 10 — kill + revive, counter restarts — 2, 4.
	for i, v := range []float64{5, 10, 2, 4} {
		g.Set(v)
		rec.TickAt(float64(i + 1))
	}
	// increase(): 5 (birth) + 5 + 2 (reset: count accrual from zero) + 2.
	if d, ok := rec.Delta("starcdn_test_restarting_total", 0); !ok || d != 14 {
		t.Errorf("Delta across reset = %v (ok=%v), want 14", d, ok)
	}
	// Windowed: only epochs 3 and 4 (t > 2). The pre-window value 10 is the
	// baseline; the in-window reset to 2 counts 2, then +2.
	if d, ok := rec.Delta("starcdn_test_restarting_total", 2); !ok || d != 4 {
		t.Errorf("windowed Delta across reset = %v (ok=%v), want 4", d, ok)
	}
	// The delta form of the timeseries endpoint clamps the same way.
	req := httptest.NewRequest(http.MethodGet, "/timeseries.json?form=delta&match=restarting", nil)
	w := httptest.NewRecorder()
	rec.handleTimeseries(w, req)
	var body struct {
		Series map[string]struct {
			V []*float64 `json:"v"`
		} `json:"series"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	for _, s := range body.Series {
		for i, v := range s.V {
			if v != nil && *v < 0 {
				t.Errorf("delta point %d = %v, want non-negative across reset", i, *v)
			}
		}
	}
}
