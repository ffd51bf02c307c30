// Package shed implements closed-loop overload control: a deterministic
// stage machine that converts a degradation burn rate into graded shedding
// actions, with hysteretic recovery so the controller does not flap.
//
// The stage ladder drops the kinds of work a request needs cheapest-first;
// the gates that read a stage to drop work live in sim.Ladder, the one
// implementation of the request decision ladder, and in
// Controller.AdmitSession:
//
//	stage 0 (normal)     serve everything
//	stage 1 (relay-off)  skip relay probes; serve the §3.4 ground miss
//	                     directly for remote-owner requests (no ISL fetch)
//	stage 2 (admission)  additionally reject over-quota *new* sessions;
//	                     in-flight sessions keep flowing
//	stage 3 (hits-only)  additionally shed the ground fetch behind owner
//	                     misses: only cache hits are served
//
// The controller advances on fixed simulated-time epochs (Tick), closing
// one epoch at a time. Each closed epoch contributes a degraded-fraction
// sample (requests that fell through to the §3.4 ground-miss path divided
// by all served requests); the burn rate over a sliding window of epochs is
// compared against per-stage entry thresholds to escalate and against
// strictly lower exit thresholds to recover, and every transition must be
// preceded by a minimum dwell (epochs at the current stage) so a single
// noisy window cannot bounce the stage.
//
// Everything is a pure function of the observed request sequence: no wall
// clock, no global randomness, no package-level state — the same
// Config + request stream yields the same decisions in the simulator and
// in the TCP replayer (sequential mode), which is proven hit-for-hit in
// the shed parity tests.
package shed

import (
	"fmt"
	"sync"

	"starcdn/internal/obs"
)

// Stage is the controller's escalation level. Higher stages shed more.
type Stage int

// The stage ladder, in escalation order.
const (
	// StageNormal serves everything.
	StageNormal Stage = iota
	// StageRelayOff skips relay probes and serves remote-owner requests
	// from the ground directly (§3.4 shape, applied proactively).
	StageRelayOff
	// StageAdmission additionally rejects over-quota new sessions.
	StageAdmission
	// StageHitsOnly additionally sheds owner-miss ground fetches.
	StageHitsOnly
)

// numStages bounds the ladder; there are numStages-1 transitions up.
const numStages = int(StageHitsOnly) + 1

var stageNames = [numStages]string{"stage-0", "stage-1", "stage-2", "stage-3"}

// Valid reports whether s is a defined stage.
func (s Stage) Valid() bool { return s >= 0 && int(s) < numStages }

// String implements fmt.Stringer ("stage-0" .. "stage-3").
func (s Stage) String() string {
	if s.Valid() {
		return stageNames[s]
	}
	return "Stage(?)"
}

// Action records what overload control did to one request. ActionNone
// means the request was served (or degraded) exactly as it would have been
// with shedding disabled.
type Action uint8

// Actions, roughly in stage order.
const (
	// ActionNone: no shedding applied.
	ActionNone Action = iota
	// ActionRelaySkip: stage ≥ 1 suppressed the relay probes on an
	// owner-miss ground fetch (relay must be configured for this to
	// differ from ActionNone).
	ActionRelaySkip
	// ActionDirectGround: stage ≥ 1 served a remote-owner request from
	// the ground without contacting the owner (proactive §3.4).
	ActionDirectGround
	// ActionRejectSession: stage ≥ 2 rejected a new session.
	ActionRejectSession
	// ActionHitOnly: stage ≥ 3 shed the ground fetch behind an owner
	// miss; the request got a refusal instead of content.
	ActionHitOnly
)

// numActions bounds the defined actions.
const numActions = int(ActionHitOnly) + 1

var actionNames = [numActions]string{
	"none", "relay-skip", "direct-ground", "reject-session", "hit-only",
}

// Valid reports whether a is a defined action.
func (a Action) Valid() bool { return int(a) < numActions }

// String implements fmt.Stringer with the stable metric-label names.
func (a Action) String() string {
	if a.Valid() {
		return actionNames[a]
	}
	return "Action(?)"
}

// Signal is one request's contribution to the controller's burn signal,
// reported via Observe after the request completes.
type Signal struct {
	// Degraded marks a request that fell through to the §3.4 ground-miss
	// path *without* shedding being the cause: the first-contact
	// satellite could not serve it (owner down/unreachable) and the
	// ground absorbed it. This is the overload/failure symptom the
	// controller integrates.
	Degraded bool
	// Action is what overload control did to the request (ActionNone if
	// it was untouched).
	Action Action
}

// Config parameterises a Controller. The zero value is not valid; use
// Defaults() or fill every threshold explicitly and call Validate.
type Config struct {
	// EpochSec is the controller's evaluation epoch in simulated seconds.
	EpochSec float64
	// WindowEpochs is the sliding-window length, in epochs, over which
	// the degraded fraction is integrated into a burn rate.
	WindowEpochs int
	// MaxDegraded is the per-epoch degraded-fraction objective: an epoch
	// whose fraction exceeds it breaches.
	MaxDegraded float64
	// BudgetFraction is the tolerated fraction of breaching epochs in the
	// window; burn = (breaching/window) / BudgetFraction, so burn 1.0
	// means breaching exactly at budget.
	BudgetFraction float64
	// Enter[i] is the burn-rate threshold at or above which the
	// controller escalates from stage i to stage i+1. Must be ascending.
	Enter [numStages - 1]float64
	// Exit[i] is the burn-rate threshold below which the controller
	// recovers from stage i+1 to stage i. Must satisfy
	// 0 < Exit[i] < Enter[i] (hysteresis).
	Exit [numStages - 1]float64
	// DwellEpochs is the minimum number of closed epochs between stage
	// transitions; it damps flapping on top of the hysteresis gap.
	DwellEpochs int
	// SessionQuota caps concurrently active sessions admitted at
	// stage ≥ 2; 0 means stage 2 rejects every new session.
	SessionQuota int
	// SessionIdleSec is how long (simulated seconds) a session stays
	// "in-flight" after its last request; beyond it the session must
	// re-admit like a new one.
	SessionIdleSec float64
	// Metrics, when non-nil, receives the starcdn_shed_* series.
	Metrics *obs.Registry
}

// Defaults returns a Config tuned for the 15 s demand windows the rest of
// the system uses: a one-minute sliding window, escalation at 1×/2×/4×
// budget burn, recovery at half of each entry threshold, and two epochs of
// dwell.
func Defaults() Config {
	return Config{
		EpochSec:       15,
		WindowEpochs:   4,
		MaxDegraded:    0.10,
		BudgetFraction: 0.25,
		Enter:          [numStages - 1]float64{1, 2, 4},
		Exit:           [numStages - 1]float64{0.5, 1, 2},
		DwellEpochs:    2,
		SessionQuota:   64,
		SessionIdleSec: 60,
	}
}

// Validate checks the Config's invariants.
func (c *Config) Validate() error {
	if c.EpochSec <= 0 {
		return fmt.Errorf("shed: EpochSec must be > 0, got %v", c.EpochSec)
	}
	if c.WindowEpochs <= 0 {
		return fmt.Errorf("shed: WindowEpochs must be > 0, got %d", c.WindowEpochs)
	}
	if c.MaxDegraded <= 0 || c.MaxDegraded >= 1 {
		return fmt.Errorf("shed: MaxDegraded must be in (0,1), got %v", c.MaxDegraded)
	}
	if c.BudgetFraction <= 0 || c.BudgetFraction > 1 {
		return fmt.Errorf("shed: BudgetFraction must be in (0,1], got %v", c.BudgetFraction)
	}
	for i := 0; i < numStages-1; i++ {
		if c.Exit[i] <= 0 || c.Exit[i] >= c.Enter[i] {
			return fmt.Errorf("shed: need 0 < Exit[%d] (%v) < Enter[%d] (%v): hysteresis requires a gap",
				i, c.Exit[i], i, c.Enter[i])
		}
		if i > 0 && c.Enter[i] < c.Enter[i-1] {
			return fmt.Errorf("shed: Enter thresholds must be ascending, Enter[%d]=%v < Enter[%d]=%v",
				i, c.Enter[i], i-1, c.Enter[i-1])
		}
	}
	if c.DwellEpochs < 0 {
		return fmt.Errorf("shed: DwellEpochs must be >= 0, got %d", c.DwellEpochs)
	}
	if c.SessionQuota < 0 {
		return fmt.Errorf("shed: SessionQuota must be >= 0, got %d", c.SessionQuota)
	}
	if c.SessionIdleSec <= 0 {
		return fmt.Errorf("shed: SessionIdleSec must be > 0, got %v", c.SessionIdleSec)
	}
	return nil
}

// session tracks one admitted traffic source (a trace location).
type session struct {
	lastSeen float64
}

// shedObs bundles the controller's metric handles; nil when no registry
// was supplied.
type shedObs struct {
	stage       *obs.Gauge
	burn        *obs.Gauge
	degraded    *obs.Gauge
	sessions    *obs.Gauge
	transitions [2]*obs.Counter // up, down
	actions     [numActions]*obs.Counter
	rejected    *obs.Counter
}

func newShedObs(reg *obs.Registry) *shedObs {
	if reg == nil {
		return nil
	}
	o := &shedObs{
		stage:    reg.Gauge("starcdn_shed_stage"),
		burn:     reg.Gauge("starcdn_shed_burn_rate"),
		degraded: reg.Gauge("starcdn_shed_degraded_ratio"),
		sessions: reg.Gauge("starcdn_shed_sessions_open"),
		rejected: reg.Counter("starcdn_shed_sessions_rejected_total"),
	}
	o.transitions[0] = reg.Counter("starcdn_shed_transitions_total", obs.L("dir", "up"))
	o.transitions[1] = reg.Counter("starcdn_shed_transitions_total", obs.L("dir", "down"))
	for a := 0; a < numActions; a++ {
		o.actions[a] = reg.Counter("starcdn_shed_actions_total", obs.L("action", Action(a).String()))
	}
	return o
}

// Controller is the stage machine. It is safe for concurrent use; in the
// deterministic pipelines (sim.Run, sequential TCP replay) all calls come
// from one goroutine in request-time order, which is what makes its
// decisions reproducible.
type Controller struct {
	cfg Config

	mu sync.Mutex
	// epoch accumulation
	next     float64 // end of the currently accumulating epoch
	started  bool
	served   int // requests observed this epoch (shed rejections included)
	degraded int // of those, §3.4 degraded ones
	// sliding window of per-epoch breach flags
	breaches []bool
	// controller state
	stage      Stage
	dwell      int // closed epochs since the last transition
	burn       float64
	ups, downs int
	// session admission, keyed by trace location index (the session
	// identity both the simulator and the replayer share)
	sessions map[int]*session

	o *shedObs
}

// NewController validates cfg and returns a Controller at StageNormal.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:      cfg,
		sessions: make(map[int]*session),
		o:        newShedObs(cfg.Metrics),
	}
	if c.o != nil {
		c.o.stage.Set(0)
	}
	return c, nil
}

// Tick advances the controller to simulated time t, closing every epoch
// boundary passed since the previous call. Both pipelines call it before
// deciding anything about the request at time t, so stage changes take
// effect at identical request boundaries.
func (c *Controller) Tick(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		c.started = true
		c.next = t + c.cfg.EpochSec
		return
	}
	for t >= c.next {
		c.closeEpochLocked(c.next)
		c.next += c.cfg.EpochSec
	}
}

// EpochDue reports whether Tick(t) would close an epoch: the points at which
// the controller reads the outcomes observed so far. A pipelined replay drains
// its requests in flight before each.
func (c *Controller) EpochDue(t float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started && t >= c.next
}

// closeEpochLocked integrates the finished epoch into the window, updates
// the burn rate, and applies at most one stage transition.
func (c *Controller) closeEpochLocked(now float64) {
	// Degraded fraction of the epoch. A zero-traffic epoch is healthy
	// (fraction 0): unlike the SLO engine, which skips idle windows, the
	// controller must keep recovering while traffic is gone, otherwise a
	// stage-3 cluster that shed everyone could never readmit them.
	frac := 0.0
	if c.served > 0 {
		frac = float64(c.degraded) / float64(c.served)
	}
	c.served, c.degraded = 0, 0

	c.breaches = append(c.breaches, frac > c.cfg.MaxDegraded)
	if n := len(c.breaches) - c.cfg.WindowEpochs; n > 0 {
		c.breaches = c.breaches[n:]
	}
	breaks := 0
	for _, b := range c.breaches {
		if b {
			breaks++
		}
	}
	c.burn = float64(breaks) / float64(len(c.breaches)) / c.cfg.BudgetFraction

	c.dwell++
	if c.dwell >= c.cfg.DwellEpochs {
		switch {
		case c.stage < StageHitsOnly && c.burn >= c.cfg.Enter[c.stage]:
			c.stage++
			c.dwell = 0
			c.ups++
			if c.o != nil {
				c.o.transitions[0].Inc()
			}
		case c.stage > StageNormal && c.burn < c.cfg.Exit[c.stage-1]:
			c.stage--
			c.dwell = 0
			c.downs++
			if c.o != nil {
				c.o.transitions[1].Inc()
			}
		}
	}

	// Sweep idle sessions so the quota frees up deterministically.
	for k, s := range c.sessions {
		if now-s.lastSeen > c.cfg.SessionIdleSec {
			delete(c.sessions, k)
		}
	}

	if c.o != nil {
		c.o.stage.Set(float64(c.stage))
		c.o.burn.Set(c.burn)
		c.o.degraded.Set(frac)
		c.o.sessions.Set(float64(len(c.sessions)))
	}
}

// Observe feeds one completed request into the burn signal and the action
// counters. Every request must be observed exactly once, after its
// outcome is known.
func (c *Controller) Observe(sig Signal) {
	c.mu.Lock()
	c.served++
	if sig.Degraded {
		c.degraded++
	}
	c.mu.Unlock()
	if c.o != nil && sig.Action.Valid() {
		c.o.actions[sig.Action].Inc()
	}
}

// AdmitSession decides whether the session identified by loc (a trace
// location index) may proceed at simulated time t. Below stage 2
// everything is admitted and tracked; at stage ≥ 2 an in-flight session
// (seen within SessionIdleSec) is refreshed and admitted, a new one is
// admitted only under the quota. Rejected sessions are not tracked, so
// their retries keep being rejected until the stage drops or the quota
// frees up.
func (c *Controller) AdmitSession(loc int, t float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sessions[loc]; ok && t-s.lastSeen <= c.cfg.SessionIdleSec {
		s.lastSeen = t
		return true
	}
	if c.stage >= StageAdmission && len(c.sessions) >= c.cfg.SessionQuota {
		if c.o != nil {
			c.o.rejected.Inc()
		}
		return false
	}
	c.sessions[loc] = &session{lastSeen: t}
	if c.o != nil {
		c.o.sessions.Set(float64(len(c.sessions)))
	}
	return true
}

// Stage returns the current stage. In the deterministic pipelines this is
// read once per request, right after Tick.
func (c *Controller) Stage() Stage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stage
}

// Status is a snapshot of the controller: what the end-of-run summary prints
// and what the starcdn_shed_* gauges carry per epoch.
type Status struct {
	StageName    string
	Burn         float64
	SessionsOpen int
}

// Status snapshots the controller.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		StageName:    c.stage.String(),
		Burn:         c.burn,
		SessionsOpen: len(c.sessions),
	}
}

// Transitions returns the cumulative (up, down) stage-transition counts.
func (c *Controller) Transitions() (up, down int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ups, c.downs
}

// Health wraps a health source so /healthz bodies carry the active shed
// stage; stage ≥ 1 marks the note but does not flip OK (shedding is the
// system protecting itself, not an outage).
func (c *Controller) Health(base func() obs.Health) func() obs.Health {
	return func() obs.Health {
		var h obs.Health
		if base != nil {
			h = base()
		}
		st := c.Stage()
		h.Shed = st.String()
		if st > StageNormal {
			if h.Note != "" {
				h.Note += "; "
			}
			h.Note += "shedding " + st.String()
		}
		return h
	}
}
