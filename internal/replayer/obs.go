package replayer

import (
	"starcdn/internal/obs"
	"starcdn/internal/obs/sketch"
	"starcdn/internal/sim"
)

// replayObs holds the replay-level instruments: request counters per
// service source, resolved once per replay. A nil *replayObs is the disabled
// configuration and records nothing.
//
// The counters are atomic, so ReplayConcurrent's per-location workers share
// one replayObs without coordination.
type replayObs struct {
	bySource []*obs.Counter // indexed by sim.Source
	// served/hits aggregate across sources, the denominator/numerator pair
	// starcdn-replay's hit-rate SLO evaluates (ratio objectives need single
	// series).
	served *obs.Counter
	hits   *obs.Counter
	// pop is the opt-in streaming-sketch telemetry (Options.Sketches); nil
	// keeps the metrics-only fast path.
	pop *sharedPop
}

// sharedPop is the replay side of sim's popularity telemetry: the same top-K
// summaries sim.Run builds, under the same names and update rule, plus a
// wall-clock latency quantile sketch for requests actually served over TCP.
type sharedPop = sim.PopObs[*obs.TopK, *obs.Sketch]

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

// popObs returns the sketch instruments, nil when they (or all of obs) are
// off.
func (ro *replayObs) popObs() *sharedPop {
	if ro == nil {
		return nil
	}
	return ro.pop
}

// popShard is the single-owner per-worker form of sharedPop: each concurrent
// worker owns one and records into it with no lock (nothing in it is
// synchronized, so no second goroutine may touch it before the barrier), and
// hands it to mergeShard at the next segment barrier (then resets it for
// reuse).
type popShard = sim.PopObs[*obs.TopKShard, *sketch.Quantile]

func newPopShard() *popShard {
	return &popShard{
		Objects: obs.NewTopKShard(0),
		Sats:    obs.NewTopKShard(0),
		Buckets: obs.NewTopKShard(0),
		Latency: sketch.NewQuantile(0, 0),
	}
}

// mergeShard folds one worker's shard into the shared instruments and clears
// it for the next segment. ReplayConcurrent calls this at segment barriers in
// location order, making the merged summaries independent of worker
// scheduling.
func mergeShard(po *sharedPop, ps *popShard) {
	po.Objects.MergeShard(ps.Objects)
	po.Sats.MergeShard(ps.Sats)
	po.Buckets.MergeShard(ps.Buckets)
	po.Latency.MergeQuantile(ps.Latency)
	ps.Objects.Reset()
	ps.Sats.Reset()
	ps.Buckets.Reset()
	ps.Latency.Reset()
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
