package replayer

import (
	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/obs/sketch"
	"starcdn/internal/orbit"
	"starcdn/internal/sim"
	"starcdn/internal/trace"
)

// replayObs holds the replay-level instruments: request and byte counters
// per service source, resolved once per replay. A nil *replayObs is the
// disabled configuration and records nothing.
//
// The counters are atomic, so ReplayConcurrent's per-location workers share
// one replayObs without coordination.
type replayObs struct {
	bySource []*obs.Counter // indexed by sim.Source
	bytes    []*obs.Counter
	// served/hits aggregate across sources, the numerator/denominator pair
	// a hit-rate SLO evaluates (ratio objectives need single series).
	served *obs.Counter
	hits   *obs.Counter
	// pop is the opt-in streaming-sketch telemetry (Options.Sketches); nil
	// keeps the metrics-only fast path.
	pop *popObs
}

func newReplayObs(reg *obs.Registry, sketches bool) *replayObs {
	if reg == nil {
		return nil
	}
	srcs := sim.Sources()
	ro := &replayObs{
		bySource: make([]*obs.Counter, len(srcs)),
		bytes:    make([]*obs.Counter, len(srcs)),
		served:   reg.Counter("starcdn_replay_served_total"),
		hits:     reg.Counter("starcdn_replay_hits_total"),
	}
	for _, s := range srcs {
		l := obs.L("source", s.String())
		ro.bySource[s] = reg.Counter("starcdn_replay_requests_total", l)
		ro.bytes[s] = reg.Counter("starcdn_replay_bytes_total", l)
	}
	if sketches {
		ro.pop = newPopObs(reg)
	}
	return ro
}

// sketching reports whether the sketch instruments are live, so callers can
// skip computing sketch-only inputs (bucket, trace ID) on the disabled path.
func (ro *replayObs) sketching() bool { return ro != nil && ro.pop != nil }

// recordPop feeds one request into the sketch telemetry (nil-safe no-op when
// sketches are off). sat < 0 means no satellite served the request; bucket <
// 0 means no consistent-hash bucket; a NaN wall latency means the request
// never crossed the wire (degraded/shed before contact) and is skipped by
// the quantile sketch.
func (ro *replayObs) recordPop(r *trace.Request, req int64, sat orbit.SatID,
	bucket int, wallLatencyMs float64, traceID string) {
	if ro != nil && ro.pop != nil {
		po := ro.pop
		observePop(po.objects, po.sats, po.buckets, po.latency, r, req, sat, bucket, wallLatencyMs, traceID)
	}
}

// popObs holds the replay-side streaming-sketch instruments: the same top-K
// popularity summaries sim.Run builds (same names, same integer keys, same
// update rule — which is what makes per-seed top-K parity between the two
// pipelines an exact comparison) plus a wall-clock latency quantile sketch
// for requests actually served over TCP.
type popObs struct {
	objects *obs.TopK
	sats    *obs.TopK
	buckets *obs.TopK
	latency *obs.Sketch
}

func newPopObs(reg *obs.Registry) *popObs {
	po := &popObs{
		objects: reg.TopK("starcdn_popularity_objects", 0),
		sats:    reg.TopK("starcdn_popularity_sats", 0),
		buckets: reg.TopK("starcdn_popularity_buckets", 0),
		latency: reg.Sketch("starcdn_sketch_replay_wall_ms", 0),
	}
	po.objects.SetNamer(popObjectNamer)
	po.sats.SetNamer(popSatNamer)
	po.buckets.SetNamer(popBucketNamer)
	return po
}

// The popularity top-Ks are keyed by integer identity and named lazily at
// exposition — sharing sim's renderers keeps cross-pipeline top-K parity a
// straight entry comparison.
func popObjectNamer(id uint64) string { return sim.PopObjectKey(cache.ObjectID(id)) }
func popSatNamer(id uint64) string    { return sim.PopSatKey(orbit.SatID(id)) }
func popBucketNamer(id uint64) string { return sim.PopBucketKey(int(id)) }

// observePop is the one update rule of the popularity telemetry, over the
// shared instruments or a worker's shard alike.
func observePop(objects, sats, buckets interface {
	ObserveIDEx(id uint64, inc int64, ex sketch.Exemplar)
}, latency interface {
	ObserveEx(x float64, ex sketch.Exemplar)
}, r *trace.Request, req int64, sat orbit.SatID, bucket int, wallLatencyMs float64, traceID string) {
	ex := sketch.Exemplar{TraceID: traceID, Req: req, Value: float64(r.Size)}
	objects.ObserveIDEx(uint64(r.Object), 1, ex)
	if bucket >= 0 {
		buckets.ObserveIDEx(uint64(bucket), 1, ex)
	}
	if sat >= 0 {
		sats.ObserveIDEx(uint64(sat), 1, ex)
	}
	// NaN (no wire contact) is ignored by the sketch.
	latency.ObserveEx(wallLatencyMs,
		sketch.Exemplar{TraceID: traceID, Req: req, Value: wallLatencyMs})
}

// mergeShard folds one worker's single-owner shard into the shared
// instruments. ReplayConcurrent calls this at segment barriers in location
// order, making the merged summaries independent of worker scheduling.
func (po *popObs) mergeShard(ps *popShard) {
	if po == nil || ps == nil {
		return
	}
	po.objects.MergeShard(ps.objects)
	po.sats.MergeShard(ps.sats)
	po.buckets.MergeShard(ps.buckets)
	po.latency.MergeQuantile(ps.latency)
}

// popShard is the single-owner per-worker form of popObs: each concurrent
// worker owns one and records into it with no lock (nothing in it is
// synchronized, so no second goroutine may touch it before the barrier),
// and hands it to popObs.mergeShard at the next segment barrier (then reset
// for reuse).
type popShard struct {
	objects *obs.TopKShard
	sats    *obs.TopKShard
	buckets *obs.TopKShard
	latency *sketch.Quantile
}

func newPopShard() *popShard {
	ps := &popShard{
		objects: obs.NewTopKShard(0),
		sats:    obs.NewTopKShard(0),
		buckets: obs.NewTopKShard(0),
		latency: sketch.NewQuantile(0, 0),
	}
	ps.objects.SetNamer(popObjectNamer)
	ps.sats.SetNamer(popSatNamer)
	ps.buckets.SetNamer(popBucketNamer)
	return ps
}

// recordPop is replayObs.recordPop against the single-owner shard.
func (ps *popShard) recordPop(r *trace.Request, req int64, sat orbit.SatID,
	bucket int, wallLatencyMs float64, traceID string) {
	if ps != nil {
		observePop(ps.objects, ps.sats, ps.buckets, ps.latency, r, req, sat, bucket, wallLatencyMs, traceID)
	}
}

// reset clears the shard for the next segment (the merged state lives in the
// shared instruments).
func (ps *popShard) reset() {
	if ps == nil {
		return
	}
	ps.objects.Reset()
	ps.sats.Reset()
	ps.buckets.Reset()
	ps.latency.Reset()
}

// record mirrors one replayed request into the live counters.
func (ro *replayObs) record(src sim.Source, size int64) {
	if ro == nil || !src.Valid() {
		return
	}
	ro.bySource[src].Inc()
	ro.bytes[src].Add(size)
	ro.served.Inc()
	if src.Hit() {
		ro.hits.Inc()
	}
}
