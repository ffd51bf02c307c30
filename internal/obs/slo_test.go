package obs

import (
	"math"
	"strings"
	"testing"
)

// breaching reads objective i's starcdn_slo_breach gauge: whether its latest
// evaluated epoch breached.
func breaching(e *SLOEngine, i int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.slos[i].breach.Value() > 0
}

// evals returns how many epochs objective i has evaluated (windows that held
// samples).
func evals(e *SLOEngine, i int) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.slos[i].evals
}

// TestSLOValidate rejects malformed objectives.
func TestSLOValidate(t *testing.T) {
	bad := []SLO{
		{},                     // no name
		{Name: "x"},            // no objective
		{Name: "x", Good: "g"}, // Good without Total
		{Name: "x", Good: "g", Total: "t", MinRatio: 2},                // ratio out of range
		{Name: "x", Series: "s", Quantile: 0},                          // quantile out of range
		{Name: "x", Series: "s", Quantile: 1.5},                        // quantile out of range
		{Name: "x", Series: "s", Quantile: 0.5, Good: "g", Total: "t"}, // mixed forms
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad[%d] %+v validated", i, s)
		}
	}
	good := []SLO{
		{Name: "ratio", Good: "g", Total: "t", MinRatio: 0.6},
		{Name: "quant", Series: "s", Quantile: 0.99, MaxValue: 50},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestSLOEngineNilWiring checks the unconditional-wiring contract: nil
// recorder or empty objective list yields a nil engine whose methods no-op.
func TestSLOEngineNilWiring(t *testing.T) {
	if e, err := NewSLOEngine(nil, NewRegistry(), []SLO{{Name: "x", Good: "g", Total: "t"}}); e != nil || err != nil {
		t.Errorf("nil recorder: engine=%v err=%v", e, err)
	}
	rec := NewRecorder(NewRegistry(), RecorderOptions{})
	if e, err := NewSLOEngine(rec, NewRegistry(), nil); e != nil || err != nil {
		t.Errorf("no slos: engine=%v err=%v", e, err)
	}
	var e *SLOEngine
	e.evaluate(0)
	if e.Snapshot() != nil || e.Burning() != nil {
		t.Error("nil engine returned state")
	}
	h := e.Health(nil)
	if h != nil {
		t.Error("nil engine Health(nil) != nil")
	}
}

// TestSLORatioBurn drives a hit-rate objective through a healthy phase, a
// breach phase (the "kill window"), and a recovery, checking the exported
// burn-rate crosses 1 during the breach and the budget depletes.
func TestSLORatioBurn(t *testing.T) {
	reg := NewRegistry()
	served := reg.Counter("starcdn_test_served_total")
	hits := reg.Counter("starcdn_test_hits_total")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	eng, err := NewSLOEngine(rec, reg, []SLO{{
		Name:     "hit-rate",
		Good:     "starcdn_test_hits_total",
		Total:    "starcdn_test_served_total",
		MinRatio: 0.5,
		// Window of 4 epochs, 25% budget: one breaching epoch in four is
		// exactly burn 1; two is burn 2.
		WindowSec:      4,
		BudgetFraction: 0.25,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil {
		t.Fatal("engine is nil")
	}

	step := func(t0 float64, nServed, nHits int64) {
		served.Add(nServed)
		hits.Add(nHits)
		rec.TickAt(t0)
	}

	// Healthy epochs: 80% hit rate.
	for i := 1; i <= 4; i++ {
		step(float64(i), 10, 8)
	}
	if burning := eng.Burning(); len(burning) != 0 {
		t.Fatalf("burning during healthy phase: %v", burning)
	}
	snap := eng.Snapshot()
	if len(snap) != 1 || breaching(eng, 0) || snap[0].Value < 0.5 {
		t.Fatalf("healthy snapshot = %+v", snap)
	}

	// Kill window: hit rate collapses to 0% for three epochs. The sliding
	// ΔGood/ΔTotal crosses below 0.5 and breaching epochs accumulate.
	for i := 5; i <= 7; i++ {
		step(float64(i), 10, 0)
	}
	snap = eng.Snapshot()
	if !breaching(eng, 0) {
		t.Fatalf("no breach after kill window: %+v", snap[0])
	}
	if snap[0].BurnRate <= 1 {
		t.Errorf("burn rate %v during kill window, want > 1", snap[0].BurnRate)
	}
	if got := eng.Burning(); len(got) != 1 || got[0] != "hit-rate" {
		t.Errorf("Burning = %v, want [hit-rate]", got)
	}
	if snap[0].Budget >= 1 {
		t.Errorf("budget %v did not deplete", snap[0].Budget)
	}

	// Exported series carry the slo label and are themselves recorded.
	if v := reg.Gauge("starcdn_slo_breach", L("slo", "hit-rate")).Value(); v != 1 {
		t.Errorf("starcdn_slo_breach = %v, want 1", v)
	}
	if c := reg.Counter("starcdn_slo_breaches_total", L("slo", "hit-rate")).Value(); c == 0 {
		t.Error("starcdn_slo_breaches_total = 0")
	}
	if pts := rec.Window(`starcdn_slo_burn_rate{slo="hit-rate"}`, 0); len(pts) == 0 {
		t.Errorf("burn rate not recorded as a time series; have %v", rec.Series())
	}

	// Recovery: healthy epochs push the breach bits out of the window.
	for i := 8; i <= 14; i++ {
		step(float64(i), 10, 10)
	}
	if burning := eng.Burning(); len(burning) != 0 {
		t.Errorf("still burning after recovery: %v", burning)
	}
}

// TestSLOQuantile drives a latency objective over a recorded histogram.
func TestSLOQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("starcdn_test_latency_ms", []float64{1, 10, 100, 1000})
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	eng, err := NewSLOEngine(rec, reg, []SLO{{
		Name: "p99", Series: "starcdn_test_latency_ms",
		Quantile: 0.99, MaxValue: 100, WindowSec: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Fast epochs: everything under 10ms.
	for i := 1; i <= 3; i++ {
		for j := 0; j < 20; j++ {
			h.Observe(5)
		}
		rec.TickAt(float64(i))
	}
	snap := eng.Snapshot()
	if breaching(eng, 0) || snap[0].Value > 10 {
		t.Fatalf("fast phase snapshot = %+v", snap[0])
	}

	// Stall: tail samples land in the +Inf-adjacent bucket.
	for j := 0; j < 20; j++ {
		h.Observe(900)
	}
	rec.TickAt(4)
	snap = eng.Snapshot()
	if !breaching(eng, 0) {
		t.Fatalf("no breach after stall: %+v", snap[0])
	}
	if snap[0].Value <= 100 {
		t.Errorf("windowed p99 = %v, want > 100", snap[0].Value)
	}
}

// TestSLOIdleWindows checks epochs without samples neither breach nor burn.
func TestSLOIdleWindows(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	eng, err := NewSLOEngine(rec, reg, []SLO{{
		Name: "idle", Good: "starcdn_test_hits_total",
		Total: "starcdn_test_served_total", MinRatio: 0.9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		rec.TickAt(float64(i))
	}
	snap := eng.Snapshot()
	if evals(eng, 0) != 0 || breaching(eng, 0) || len(eng.Burning()) != 0 {
		t.Errorf("idle engine evaluated: %+v burning=%v", snap[0], eng.Burning())
	}
}

// TestSLOHealth checks the /healthz composition with a base health func.
func TestSLOHealth(t *testing.T) {
	reg := NewRegistry()
	served := reg.Counter("starcdn_test_served_total")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	eng, err := NewSLOEngine(rec, reg, []SLO{{
		Name: "hit-rate", Good: "starcdn_test_hits_total",
		Total: "starcdn_test_served_total", MinRatio: 0.9,
		WindowSec: 2, BudgetFraction: 0.01,
	}})
	if err != nil {
		t.Fatal(err)
	}
	base := func() Health { return Health{OK: true, Note: "cluster fine"} }

	if h := eng.Health(base)(); !h.OK {
		t.Fatalf("healthy engine degraded health: %+v", h)
	}
	// All misses: every epoch breaches, burn explodes past 1.
	for i := 1; i <= 3; i++ {
		served.Add(10)
		rec.TickAt(float64(i))
	}
	h := eng.Health(base)()
	if h.OK {
		t.Fatalf("burning engine reported OK: %+v", h)
	}
	found := false
	for _, d := range h.Down {
		if strings.HasPrefix(d, "slo:") {
			found = true
		}
	}
	if !found {
		t.Errorf("Down %v lacks slo: entry", h.Down)
	}
	// Base note survives when present.
	if h.Note != "cluster fine" {
		t.Errorf("Note = %q, want base note preserved", h.Note)
	}
}

// TestSLOZeroTrafficBurnIsZero pins the zero-traffic contract for both
// objective forms: registered-but-silent series produce skipped epochs, so
// the burn rate stays exactly 0 — never NaN from a 0/0 ratio or an empty
// histogram quantile — and a burst of traffic followed by silence leaves the
// last computed burn in place rather than poisoning it.
func TestSLOZeroTrafficBurnIsZero(t *testing.T) {
	reg := NewRegistry()
	served := reg.Counter("starcdn_test_served_total")
	hits := reg.Counter("starcdn_test_hits_total")
	reg.Histogram("starcdn_test_latency_ms", []float64{1, 10, 100})
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	eng, err := NewSLOEngine(rec, reg, []SLO{
		{Name: "ratio", Good: "starcdn_test_hits_total",
			Total: "starcdn_test_served_total", MinRatio: 0.5, WindowSec: 4},
		{Name: "quant", Series: "starcdn_test_latency_ms",
			Quantile: 0.99, MaxValue: 100, WindowSec: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Both series exist in the registry (so the recorder snapshots them at
	// value 0 each epoch) but carry no traffic: every window's ΔTotal is 0
	// and every histogram window is empty.
	for i := 1; i <= 5; i++ {
		rec.TickAt(float64(i))
	}
	for i, s := range eng.Snapshot() {
		if n := evals(eng, i); n != 0 {
			t.Errorf("%s evaluated %d zero-traffic epochs", s.Name, n)
		}
		if math.IsNaN(s.BurnRate) || s.BurnRate != 0 {
			t.Errorf("%s zero-traffic burn = %v, want 0", s.Name, s.BurnRate)
		}
		if math.IsNaN(s.Budget) {
			t.Errorf("%s zero-traffic budget is NaN", s.Name)
		}
	}

	// One healthy epoch of traffic, then silence again: the burst remains
	// visible for WindowSec of trailing windows (epochs 6-9 evaluate, epoch
	// 10's delta is 0 and skips), and the engine holds the last evaluated
	// state instead of decaying it through 0/0 arithmetic.
	served.Add(10)
	hits.Add(10)
	reg.Histogram("starcdn_test_latency_ms", []float64{1, 10, 100}).Observe(5)
	rec.TickAt(6)
	for i := 7; i <= 10; i++ {
		rec.TickAt(float64(i))
	}
	for i, s := range eng.Snapshot() {
		if n := evals(eng, i); n != 4 {
			t.Errorf("%s evals = %d after one traffic epoch, want 4", s.Name, n)
		}
		if math.IsNaN(s.BurnRate) || s.BurnRate != 0 {
			t.Errorf("%s post-idle burn = %v, want 0", s.Name, s.BurnRate)
		}
	}
}

// TestSLOWindowShorterThanEpoch: a WindowSec below the recorder's epoch
// clamps the breach history to a single epoch, so the burn rate swings the
// full range each evaluation instead of dividing by a zero-length window.
func TestSLOWindowShorterThanEpoch(t *testing.T) {
	reg := NewRegistry()
	served := reg.Counter("starcdn_test_served_total")
	hits := reg.Counter("starcdn_test_hits_total")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 10})
	eng, err := NewSLOEngine(rec, reg, []SLO{{
		Name: "subepoch", Good: "starcdn_test_hits_total",
		Total: "starcdn_test_served_total", MinRatio: 0.5,
		// 3s window under 10s epochs: int(3/10) == 0 history slots before the
		// clamp to 1.
		WindowSec:      3,
		BudgetFraction: 0.5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	step := func(t0 float64, nServed, nHits int64) SLOStatus {
		served.Add(nServed)
		hits.Add(nHits)
		rec.TickAt(t0)
		return eng.Snapshot()[0]
	}

	if s := step(10, 10, 10); s.BurnRate != 0 || math.IsNaN(s.BurnRate) {
		t.Errorf("healthy epoch burn = %v, want 0", s.BurnRate)
	}
	// A breaching epoch: the one-slot history is 100% breached, burn 1/0.5.
	if s := step(20, 10, 0); s.BurnRate != 2 {
		t.Errorf("breaching epoch burn = %v, want 2", s.BurnRate)
	}
	if got := eng.Burning(); len(got) != 1 || got[0] != "subepoch" {
		t.Errorf("Burning = %v, want [subepoch]", got)
	}
	// Recovery is immediate: with history clamped to one epoch the prior
	// breach bit cannot linger (a 2-slot window would leave burn at 1 here).
	if s := step(30, 10, 10); s.BurnRate != 0 {
		t.Errorf("post-recovery burn = %v, want 0", s.BurnRate)
	}
	if got := eng.Burning(); len(got) != 0 {
		t.Errorf("still burning after one clean epoch: %v", got)
	}
}

// TestSLOQuantileSingleSample: a window holding exactly one histogram sample
// evaluates to a value inside that sample's bucket — the degenerate rank
// q*1 < 1 must not skip the only occupied bucket or return NaN.
func TestSLOQuantileSingleSample(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("starcdn_test_latency_ms", []float64{1, 10, 100, 1000})
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	eng, err := NewSLOEngine(rec, reg, []SLO{{
		Name: "p99", Series: "starcdn_test_latency_ms",
		Quantile: 0.99, MaxValue: 100, WindowSec: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}

	// One fast sample: p99 of a single observation at 5ms interpolates inside
	// the (1,10] bucket and stays under the objective.
	h.Observe(5)
	rec.TickAt(1)
	s := eng.Snapshot()[0]
	if n := evals(eng, 0); n != 1 {
		t.Fatalf("evals = %d after single-sample window, want 1", n)
	}
	if math.IsNaN(s.Value) || s.Value <= 1 || s.Value > 10 {
		t.Errorf("single-sample p99 = %v, want in (1,10]", s.Value)
	}
	if breaching(eng, 0) || s.BurnRate != 0 {
		t.Errorf("single fast sample breached: %+v", s)
	}

	// One slow sample in the next window: the same degenerate rank lands in
	// the (100,1000] bucket and breaches.
	h.Observe(900)
	rec.TickAt(2)
	s = eng.Snapshot()[0]
	if math.IsNaN(s.Value) || s.Value <= 100 || s.Value > 1000 {
		t.Errorf("single slow sample p99 = %v, want in (100,1000]", s.Value)
	}
	if !breaching(eng, 0) {
		t.Errorf("single slow sample did not breach: %+v", s)
	}
}

// TestSLOBudgetMath sanity-checks budget_remaining against hand-computed
// values: budget 0.25, 4 evals, 1 breach → 1 - (1/4)/0.25 = 0.
func TestSLOBudgetMath(t *testing.T) {
	reg := NewRegistry()
	served := reg.Counter("starcdn_test_served_total")
	hits := reg.Counter("starcdn_test_hits_total")
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	eng, err := NewSLOEngine(rec, reg, []SLO{{
		Name: "hr", Good: "starcdn_test_hits_total", Total: "starcdn_test_served_total",
		MinRatio: 0.5, WindowSec: 1, BudgetFraction: 0.25,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// 3 healthy epochs + 1 breach. WindowSec=1 means each epoch evaluates
	// only its own delta.
	for i := 1; i <= 3; i++ {
		served.Add(10)
		hits.Add(10)
		rec.TickAt(float64(i))
	}
	// The exported gauges are what the recorder rings and the end-of-run
	// summary read: all hits and no breach so far.
	value := reg.Gauge("starcdn_slo_value", L("slo", "hr"))
	budget := reg.Gauge("starcdn_slo_budget_remaining", L("slo", "hr"))
	if value.Value() != 1 || budget.Value() != 1 {
		t.Errorf("after 3 healthy epochs value = %v, budget = %v, want 1 and 1", value.Value(), budget.Value())
	}
	served.Add(10)
	rec.TickAt(4)
	if value.Value() != 0 {
		t.Errorf("hitless epoch value gauge = %v, want 0", value.Value())
	}
	snap := eng.Snapshot()
	if n := evals(eng, 0); n != 4 {
		t.Fatalf("evals = %d, want 4", n)
	}
	if math.Abs(snap[0].Budget-0) > 1e-9 {
		t.Errorf("budget = %v, want 0 (1 - (1/4)/0.25)", snap[0].Budget)
	}
}
