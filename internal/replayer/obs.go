package replayer

import (
	"starcdn/internal/obs"
	"starcdn/internal/sim"
)

// replayObs holds the replay-level instruments: request counters per
// service source, resolved once per replay. A nil *replayObs is the disabled
// configuration and records nothing.
type replayObs struct {
	bySource []*obs.Counter // indexed by sim.Source
	// served/hits aggregate across sources, the denominator/numerator pair
	// starcdn-replay's hit-rate SLO evaluates (ratio objectives need single
	// series).
	served *obs.Counter
	hits   *obs.Counter
	// pop is the opt-in streaming-sketch telemetry (Options.Sketches): the
	// same top-K summaries sim.Run builds, under the same names and update
	// rule, plus a wall-clock latency quantile sketch for requests actually
	// served over TCP. Nil keeps the metrics-only fast path.
	pop *sim.PopObs
}

func newReplayObs(reg *obs.Registry, sketches bool) *replayObs {
	if reg == nil {
		return nil
	}
	srcs := sim.Sources()
	ro := &replayObs{
		bySource: make([]*obs.Counter, len(srcs)),
		served:   reg.Counter("starcdn_replay_served_total"),
		hits:     reg.Counter("starcdn_replay_hits_total"),
	}
	for _, s := range srcs {
		ro.bySource[s] = reg.Counter("starcdn_replay_requests_total", obs.L("source", s.String()))
	}
	if sketches {
		ro.pop = sim.NewPopObs(reg, reg.Sketch("starcdn_sketch_replay_wall_ms", 0))
	}
	return ro
}

// record mirrors one replayed request into the live counters.
func (ro *replayObs) record(src sim.Source) {
	if ro == nil || !src.Valid() {
		return
	}
	ro.bySource[src].Inc()
	ro.served.Inc()
	if src.Hit() {
		ro.hits.Inc()
	}
}
