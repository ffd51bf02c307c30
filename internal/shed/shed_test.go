package shed

import (
	"testing"

	"starcdn/internal/obs"
)

// testConfig is Defaults() with a short dwell so transition tests stay
// compact; threshold geometry matches production.
func testConfig() Config {
	cfg := Defaults()
	cfg.DwellEpochs = 1
	return cfg
}

func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// feedEpoch pushes one controller epoch's worth of requests (degraded of
// them marked Degraded) and closes the epoch by ticking past its boundary.
func feedEpoch(c *Controller, t0 float64, served, degraded int) float64 {
	c.Tick(t0)
	for i := 0; i < served; i++ {
		c.Observe(Signal{Degraded: i < degraded})
	}
	return t0 + c.cfg.EpochSec
}

func TestConfigValidate(t *testing.T) {
	good := Defaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("Defaults invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero epoch", func(c *Config) { c.EpochSec = 0 }},
		{"zero window", func(c *Config) { c.WindowEpochs = 0 }},
		{"objective at 1", func(c *Config) { c.MaxDegraded = 1 }},
		{"budget over 1", func(c *Config) { c.BudgetFraction = 1.5 }},
		{"exit above enter", func(c *Config) { c.Exit[0] = c.Enter[0] }},
		{"zero exit", func(c *Config) { c.Exit[1] = 0 }},
		{"descending enter", func(c *Config) { c.Enter[2] = c.Enter[1] - 1; c.Exit[2] = c.Enter[2] / 2 }},
		{"negative dwell", func(c *Config) { c.DwellEpochs = -1 }},
		{"negative quota", func(c *Config) { c.SessionQuota = -1 }},
		{"zero idle", func(c *Config) { c.SessionIdleSec = 0 }},
	}
	for _, tc := range cases {
		cfg := Defaults()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad config", tc.name)
		}
	}
}

func TestStageAndActionStrings(t *testing.T) {
	if StageAdmission.String() != "stage-2" {
		t.Errorf("StageAdmission = %q", StageAdmission.String())
	}
	if Stage(9).String() != "Stage(?)" || Action(9).String() != "Action(?)" {
		t.Error("out-of-range String() not guarded")
	}
}

// TestEscalationAndHystereticRecovery walks the controller up the ladder
// under sustained degradation and back down under recovery, checking that
// exit requires dropping below the (lower) exit threshold, one step per
// epoch, with dwell respected.
func TestEscalationAndHystereticRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.WindowEpochs = 2
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	c := mustController(t, cfg)

	// Fully-degraded epochs: burn = 1/0.25 = 4 ≥ Enter[0..2] — but the
	// controller may climb only one stage per closed epoch, and the first
	// Tick merely starts the clock (no epoch closes until the second).
	now := 0.0
	for i, want := range []Stage{StageNormal, StageNormal, StageRelayOff, StageAdmission, StageHitsOnly} {
		if got := c.Stage(); got != want {
			t.Fatalf("epoch %d: stage %v, want %v", i, got, want)
		}
		now = feedEpoch(c, now, 100, 100)
	}
	c.Tick(now)
	if c.Stage() != StageHitsOnly {
		t.Fatalf("stage = %v after sustained burn, want %v", c.Stage(), StageHitsOnly)
	}

	// One clean epoch: window [breach, clean] → burn = 0.5/0.25 = 2,
	// exactly Exit[2] — recovery requires burn strictly below the exit
	// threshold, so no step yet. The next clean epoch empties the window:
	// burn 0 → one step down per epoch until StageNormal.
	now = feedEpoch(c, now, 100, 0)
	c.Tick(now)
	if c.Stage() != StageHitsOnly {
		t.Fatalf("recovered on burn==Exit boundary; hysteresis must be strict (stage %v)", c.Stage())
	}
	for i, want := range []Stage{StageAdmission, StageRelayOff, StageNormal, StageNormal} {
		now = feedEpoch(c, now, 100, 0)
		c.Tick(now)
		if got := c.Stage(); got != want {
			t.Fatalf("recovery epoch %d: stage %v, want %v", i, got, want)
		}
	}

	up, down := c.Transitions()
	if up != 3 || down != 3 {
		t.Errorf("transitions = (%d up, %d down), want (3, 3)", up, down)
	}
	assertCounter(t, reg, `starcdn_shed_transitions_total{dir="up"}`, 3)
	assertCounter(t, reg, `starcdn_shed_transitions_total{dir="down"}`, 3)
	assertGauge(t, reg, "starcdn_shed_stage", 0)
}

// TestDwellDampsFlapping: with DwellEpochs=3 a single breaching window
// cannot bounce the stage up and immediately back down.
func TestDwellDampsFlapping(t *testing.T) {
	cfg := testConfig()
	cfg.WindowEpochs = 1 // burn is all-or-nothing per epoch: maximal flap pressure
	cfg.DwellEpochs = 3
	c := mustController(t, cfg)

	now := feedEpoch(c, 0, 10, 10) // breach epoch accumulating
	now = feedEpoch(c, now, 10, 10)
	now = feedEpoch(c, now, 10, 10)
	c.Tick(now) // third close: dwell satisfied, escalate once
	if c.Stage() != StageRelayOff {
		t.Fatalf("stage %v after 3 breach epochs with dwell 3, want stage-1", c.Stage())
	}
	// Clean epochs now alternate burn 0 — but dwell forbids stepping down
	// until 3 more epochs close.
	now = feedEpoch(c, now, 10, 0)
	now = feedEpoch(c, now, 10, 0)
	c.Tick(now)
	if c.Stage() != StageRelayOff {
		t.Fatalf("stage dropped before dwell expired: %v", c.Stage())
	}
	now = feedEpoch(c, now, 10, 0)
	c.Tick(now)
	if c.Stage() != StageNormal {
		t.Fatalf("stage %v after dwell expiry on clean burn, want stage-0", c.Stage())
	}
}

// TestZeroTrafficEpochsRecover: epochs with no observed requests count as
// healthy (degraded fraction 0), so a controller that shed all traffic
// away still walks back down to stage 0 during the resulting silence.
func TestZeroTrafficEpochsRecover(t *testing.T) {
	cfg := testConfig()
	cfg.WindowEpochs = 2
	c := mustController(t, cfg)

	now := 0.0
	for i := 0; i < 4; i++ {
		now = feedEpoch(c, now, 50, 50)
	}
	c.Tick(now)
	if c.Stage() != StageHitsOnly {
		t.Fatalf("setup: stage %v, want stage-3", c.Stage())
	}
	// Silence: tick far forward with zero observations. Every crossed
	// epoch closes with fraction 0 and recovery proceeds.
	c.Tick(now + 10*cfg.EpochSec)
	if c.Stage() != StageNormal {
		t.Fatalf("stage %v after idle epochs, want stage-0 (zero-traffic epochs must be healthy)", c.Stage())
	}
	if b := c.burn; b != 0 {
		t.Fatalf("burn = %v after idle window, want 0 (not NaN)", b)
	}
}

// TestSessionAdmission covers the stage-2 quota: in-flight refresh, quota
// rejection of new sessions, idle expiry freeing quota slots, and free
// admission below stage 2.
func TestSessionAdmission(t *testing.T) {
	cfg := testConfig()
	cfg.SessionQuota = 2
	cfg.SessionIdleSec = 30
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	c := mustController(t, cfg)

	// Below stage 2 everything is admitted, even past the quota.
	for _, k := range []int{1, 2, 3} {
		if !c.AdmitSession(k, 1) {
			t.Fatalf("session %d rejected below stage 2", k)
		}
	}

	// Force stage 2 and start fresh sessions.
	c2 := mustController(t, cfg)
	now := 0.0
	for i := 0; i < 3; i++ {
		now = feedEpoch(c2, now, 50, 50)
	}
	c2.Tick(now)
	if c2.Stage() < StageAdmission {
		t.Fatalf("setup: stage %v, want >= stage-2", c2.Stage())
	}
	if !c2.AdmitSession(10, now) || !c2.AdmitSession(11, now) {
		t.Fatal("under-quota new sessions rejected")
	}
	if c2.AdmitSession(12, now) {
		t.Fatal("over-quota new session admitted at stage >= 2")
	}
	// In-flight sessions keep flowing; the rejected one stays rejected.
	if !c2.AdmitSession(10, now+1) {
		t.Fatal("in-flight session rejected")
	}
	if c2.AdmitSession(12, now+1) {
		t.Fatal("rejected session admitted on retry with a full quota")
	}
	// Keep the burn high (degraded traffic, no session touches) while a
	// and b go idle past SessionIdleSec: the epoch sweep must free their
	// quota slots even though the stage stays >= 2.
	for i := 0; i < 4; i++ {
		now = feedEpoch(c2, now, 50, 50)
	}
	c2.Tick(now)
	if c2.Stage() < StageAdmission {
		t.Fatalf("sweep phase: stage %v, want >= stage-2", c2.Stage())
	}
	if !c2.AdmitSession(12, now) {
		t.Fatal("expired sessions did not free quota slots")
	}
	if open := c2.Status().SessionsOpen; open != 1 {
		t.Errorf("%d sessions open after the sweep and one admission, want 1", open)
	}
	assertGauge(t, reg, "starcdn_shed_sessions_open", 1)
	if v := counterValue(t, reg, "starcdn_shed_sessions_rejected_total"); v < 2 {
		t.Errorf("sessions_rejected_total = %v, want >= 2", v)
	}
}

func TestHealthWrapper(t *testing.T) {
	cfg := testConfig()
	c := mustController(t, cfg)
	base := func() obs.Health { return obs.Health{OK: true, Live: 7, Note: "replaying"} }
	h := c.Health(base)()
	if h.Shed != "stage-0" || !h.OK || h.Live != 7 {
		t.Fatalf("healthy wrap = %+v", h)
	}
	now := 0.0
	for i := 0; i < 3; i++ {
		now = feedEpoch(c, now, 10, 10)
	}
	c.Tick(now)
	h = c.Health(base)()
	if h.Shed == "stage-0" {
		t.Fatalf("Shed = %q after escalation", h.Shed)
	}
	if !h.OK {
		t.Error("shedding flipped OK; it must degrade gracefully, not report an outage")
	}
	if h.Note != "replaying; shedding "+h.Shed {
		t.Errorf("Note = %q", h.Note)
	}
	if got := c.Health(nil)(); got.Shed == "" {
		t.Error("nil base must still stamp the stage")
	}
}

func TestStatusSnapshot(t *testing.T) {
	cfg := testConfig()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	c := mustController(t, cfg)
	st := c.Status()
	if st.StageName != "stage-0" {
		t.Fatalf("stage-0 status = %+v", st)
	}
	now := 0.0
	for i := 0; i < 4; i++ {
		now = feedEpoch(c, now, 10, 10)
	}
	c.Tick(now)
	st = c.Status()
	if st.StageName != StageHitsOnly.String() {
		t.Fatalf("stage-3 status = %+v", st)
	}
	if st.Burn <= 0 {
		t.Fatalf("status signals = %+v", st)
	}
	// The per-epoch gauges carry the same signals into the recorder rings.
	assertGauge(t, reg, "starcdn_shed_burn_rate", st.Burn)
	assertGauge(t, reg, "starcdn_shed_degraded_ratio", 1)
}

func TestDeterministicReplayOfSignalStream(t *testing.T) {
	// Two controllers fed the identical (Tick, Observe, AdmitSession)
	// stream must agree on every decision — the property the sim/TCP
	// parity test builds on.
	cfg := testConfig()
	a := mustController(t, cfg)
	b := mustController(t, cfg)
	const nLocs = 5
	for i := 0; i < 400; i++ {
		tm := float64(i) * 2.5
		a.Tick(tm)
		b.Tick(tm)
		loc := i % nLocs
		admitA := a.AdmitSession(loc, tm)
		admitB := b.AdmitSession(loc, tm)
		if admitA != admitB {
			t.Fatalf("req %d: admit diverged (%v vs %v)", i, admitA, admitB)
		}
		if sa, sb := a.Stage(), b.Stage(); sa != sb {
			t.Fatalf("req %d: stage diverged (%v vs %v)", i, sa, sb)
		}
		deg := i%3 == 0 && i > 100
		a.Observe(Signal{Degraded: deg})
		b.Observe(Signal{Degraded: deg})
	}
	upA, downA := a.Transitions()
	upB, downB := b.Transitions()
	if upA != upB || downA != downB {
		t.Fatalf("transition counts diverged: (%d,%d) vs (%d,%d)", upA, downA, upB, downB)
	}
}

// --- registry helpers -------------------------------------------------

func findSeries(t *testing.T, reg *obs.Registry, key string) (obs.SeriesSnapshot, bool) {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name+s.LabelString() == key {
			return s, true
		}
	}
	return obs.SeriesSnapshot{}, false
}

func counterValue(t *testing.T, reg *obs.Registry, key string) float64 {
	t.Helper()
	s, ok := findSeries(t, reg, key)
	if !ok {
		t.Fatalf("series %q not registered", key)
	}
	return s.Value
}

func assertCounter(t *testing.T, reg *obs.Registry, key string, want float64) {
	t.Helper()
	if got := counterValue(t, reg, key); got != want {
		t.Errorf("%s = %v, want %v", key, got, want)
	}
}

func assertGauge(t *testing.T, reg *obs.Registry, key string, want float64) {
	t.Helper()
	assertCounter(t, reg, key, want)
}
