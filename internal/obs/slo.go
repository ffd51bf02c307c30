package obs

import (
	"fmt"
	"sync"
)

// SLO is one service-level objective evaluated per recorder epoch over a
// sliding window: Good and Total name cumulative series (counters or
// histogram _count series) and the objective is "ΔGood/ΔTotal over the
// window stays >= MinRatio" — e.g. "hit rate >= 60% over 1 min".
//
// Epochs whose window holds no samples are skipped (no breach, no budget
// burn): an idle system is not failing its objectives.
type SLO struct {
	// Name labels the exported starcdn_slo_* series ({slo="<name>"}).
	Name string

	Good     string  // cumulative "good events" series key
	Total    string  // cumulative "total events" series key
	MinRatio float64 // inclusive lower bound on ΔGood/ΔTotal

	// WindowSec is the sliding evaluation window (0 selects 60s).
	WindowSec float64
	// BudgetFraction is the tolerated fraction of breaching epochs (the
	// error budget), e.g. 0.01 for 99% compliant epochs. 0 selects 0.01.
	BudgetFraction float64
}

// Validate rejects malformed objectives before an engine is built on them.
func (s SLO) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("obs: SLO needs a name")
	}
	switch {
	case s.Good == "":
		return fmt.Errorf("obs: SLO %s names no objective series", s.Name)
	case s.Total == "":
		return fmt.Errorf("obs: SLO %s has Good without Total", s.Name)
	case s.MinRatio < 0 || s.MinRatio > 1:
		return fmt.Errorf("obs: SLO %s MinRatio %v outside [0,1]", s.Name, s.MinRatio)
	}
	return nil
}

// sloState is one objective's exported instruments and breach history.
type sloState struct {
	spec SLO

	value   *Gauge   // current windowed ratio
	breach  *Gauge   // 1 when the current epoch breaches, else 0
	burn    *Gauge   // window breach fraction / budget fraction
	budget  *Gauge   // remaining error budget fraction (can go negative)
	breakC  *Counter // total breaching epochs
	evals   int64    // evaluated epochs (window held samples)
	breaks  int64    // breaching epochs
	history []bool   // breach bits of the last window's evaluated epochs
}

// SLOEngine evaluates a set of SLOs on every recorder epoch and exports the
// results back into the registry as starcdn_slo_* series — which the recorder
// then captures like any other series, so burn rates are themselves queryable
// time series on /timeseries.json. The engine also contributes to /healthz:
// Burning lists objectives whose burn rate exceeds 1 (spending error budget
// faster than allowed).
type SLOEngine struct {
	rec *Recorder

	mu   sync.Mutex
	slos []*sloState
}

// NewSLOEngine validates the objectives, registers their exported series in
// reg, and hooks evaluation into the recorder's epochs. A nil recorder or
// empty slos returns a nil engine (whose methods no-op), so callers can wire
// it unconditionally.
func NewSLOEngine(rec *Recorder, reg *Registry, slos []SLO) (*SLOEngine, error) {
	if rec == nil || len(slos) == 0 {
		return nil, nil
	}
	e := &SLOEngine{rec: rec}
	for _, s := range slos {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.WindowSec <= 0 {
			s.WindowSec = 60
		}
		if s.BudgetFraction <= 0 {
			s.BudgetFraction = 0.01
		}
		l := L("slo", s.Name)
		e.slos = append(e.slos, &sloState{
			spec:   s,
			value:  reg.Gauge("starcdn_slo_value", l),
			breach: reg.Gauge("starcdn_slo_breach", l),
			burn:   reg.Gauge("starcdn_slo_burn_rate", l),
			budget: reg.Gauge("starcdn_slo_budget_remaining", l),
			breakC: reg.Counter("starcdn_slo_breaches_total", l),
		})
	}
	rec.OnEpoch(e.evaluate)
	return e, nil
}

// evaluate runs every objective against the recorder's latest window.
func (e *SLOEngine) evaluate(float64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.slos {
		v, ok := e.windowValue(st.spec)
		if !ok {
			continue // idle window: no evaluation, no budget burn
		}
		st.value.Set(v)
		breach := v < st.spec.MinRatio
		st.evals++
		if breach {
			st.breaks++
			st.breach.Set(1)
			st.breakC.Inc()
		} else {
			st.breach.Set(0)
		}
		// History holds the breach bits of the evaluated epochs inside one
		// window; the burn rate is their breach fraction over the budget.
		maxLen := int(st.spec.WindowSec / e.rec.EpochSec())
		if maxLen < 1 {
			maxLen = 1
		}
		st.history = append(st.history, breach)
		if len(st.history) > maxLen {
			st.history = st.history[len(st.history)-maxLen:]
		}
		var windowBreaks int
		for _, b := range st.history {
			if b {
				windowBreaks++
			}
		}
		burn := float64(windowBreaks) / float64(len(st.history)) / st.spec.BudgetFraction
		st.burn.Set(burn)
		st.budget.Set(1 - float64(st.breaks)/float64(st.evals)/st.spec.BudgetFraction)
	}
}

// SLOStatus is one objective's current state, as the commands' end-of-run
// summary prints it.
type SLOStatus struct {
	Name     string
	Value    float64 // current windowed value
	BurnRate float64
	Budget   float64 // remaining error budget fraction
}

// Snapshot freezes every objective's current state (nil-safe).
func (e *SLOEngine) Snapshot() []SLOStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, 0, len(e.slos))
	for _, st := range e.slos {
		out = append(out, SLOStatus{
			Name:     st.spec.Name,
			Value:    st.value.Value(),
			BurnRate: st.burn.Value(),
			Budget:   st.budget.Value(),
		})
	}
	return out
}

// Burning returns the names of objectives currently spending error budget
// faster than allowed (burn rate > 1), sorted by declaration order. Nil-safe.
func (e *SLOEngine) Burning() []string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, st := range e.slos {
		if st.burn.Value() > 1 {
			out = append(out, st.spec.Name)
		}
	}
	return out
}

// Health folds the engine into a HealthFunc: it wraps base (nil meaning
// always-OK) and degrades the answer when any objective is burning, listing
// the burning SLOs alongside any backends base reported down. Nil engines
// return base unchanged, so wiring is unconditional.
func (e *SLOEngine) Health(base HealthFunc) HealthFunc {
	if e == nil {
		return base
	}
	return func() Health {
		h := Health{OK: true}
		if base != nil {
			h = base()
		}
		burning := e.Burning()
		if len(burning) > 0 {
			h.OK = false
			for _, name := range burning {
				h.Down = append(h.Down, "slo:"+name)
			}
			if h.Note == "" {
				h.Note = "slo burn"
			}
		}
		return h
	}
}

// windowValue computes the objective's current windowed ratio.
func (e *SLOEngine) windowValue(s SLO) (float64, bool) {
	total, ok := e.rec.Delta(s.Total, s.WindowSec)
	if !ok || total <= 0 {
		return 0, false
	}
	good, _ := e.rec.Delta(s.Good, s.WindowSec)
	return good / total, true
}
