package sim

import (
	"strconv"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/obs/sketch"
	"starcdn/internal/orbit"
	"starcdn/internal/trace"
)

// TraceSeed keys the trace sampling hash and the span identities of the
// tracers starcdn-sim and starcdn-replay build. It is one constant because a
// request carries the same trace identity in both pipelines only if they
// agree on it.
const TraceSeed = 1

// runObs holds the pre-resolved obs instruments for one Run. Handles are
// fetched once up front (registry lookups take a mutex) and updated with
// plain atomics on the per-request path. A nil *runObs is the disabled
// configuration; every method is a nil-safe no-op, so the hot loop pays one
// pointer test when observability is off.
//
// Instrument updates never read or advance the run's seeded RNG streams, so
// enabling metrics or tracing cannot change simulation results.
type runObs struct {
	bySource    [numSources]*obs.Counter
	uplinkBytes *obs.Counter
	islBytes    *obs.Counter
	latency     *obs.Histogram
	kills       *obs.Counter
	revives     *obs.Counter
	reg         *obs.Registry
	perSat      []satObs // indexed by SatID; rate is nil until the satellite first serves
	// pop is the opt-in streaming-sketch telemetry (Config.Sketches); nil
	// keeps the metrics-only fast path.
	pop *PopObs
	// bucketOf maps an object to its consistent-hash bucket for the bucket
	// top-K (-1, or a nil func, when the policy has no bucket structure).
	bucketOf func(cache.ObjectID) int
}

// PopObs is one set of streaming-sketch instruments — top-K popularity
// (objects, serving satellites, hash buckets) and a latency quantile sketch,
// all deterministic (see internal/obs/sketch) — and the one rule that updates
// them. sim.Run and the TCP replay feed every request through Record
// in request order, which is what makes per-seed top-K parity between the
// pipelines an exact comparison. Updates are pure functions of the request
// stream — no RNG, no wall clock — so enabling them cannot change results.
type PopObs struct {
	Objects, Sats, Buckets *obs.TopK
	Latency                *obs.Sketch
}

// NewPopObs resolves the shared popularity top-Ks in reg and pairs them with
// the pipeline's own latency sketch. The top-Ks are keyed by integer identity
// — the update path never builds a key string; the namers only run at
// exposition time for tracked entries.
func NewPopObs(reg *obs.Registry, latency *obs.Sketch) *PopObs {
	po := &PopObs{
		Objects: reg.TopK("starcdn_popularity_objects", 0),
		Sats:    reg.TopK("starcdn_popularity_sats", 0),
		Buckets: reg.TopK("starcdn_popularity_buckets", 0),
		Latency: latency,
	}
	po.Objects.SetNamer(func(id uint64) string { return "obj-" + strconv.FormatUint(id, 10) })
	po.Sats.SetNamer(func(id uint64) string { return "sat-" + strconv.FormatUint(id, 10) })
	po.Buckets.SetNamer(func(id uint64) string { return "bucket-" + strconv.FormatUint(id, 10) })
	return po
}

// Record feeds one request into the sketches (no-op on nil). sat < 0 means
// no satellite served (no coverage, degraded, or session-rejected) and bucket
// < 0 that the object has no consistent-hash bucket; a NaN latency (a replayed
// request that never crossed the wire) is skipped by the quantile sketch.
// traceID is the sampled request's trace identity ("" when unsampled) and
// becomes the exemplar linking hot entries back to assembled distributed
// traces.
func (po *PopObs) Record(r *trace.Request, req int64, sat orbit.SatID, bucket int, latencyMs float64, traceID string) {
	if po == nil {
		return
	}
	ex := sketch.Exemplar{TraceID: traceID, Req: req, Value: float64(r.Size)}
	po.Objects.ObserveIDEx(uint64(r.Object), 1, ex)
	if bucket >= 0 {
		po.Buckets.ObserveIDEx(uint64(bucket), 1, ex)
	}
	if sat >= 0 {
		po.Sats.ObserveIDEx(uint64(sat), 1, ex)
	}
	po.Latency.ObserveEx(latencyMs, sketch.Exemplar{TraceID: traceID, Req: req, Value: latencyMs})
}

// satObs tracks one serving satellite's live hit rate.
type satObs struct {
	req, hit int64
	rate     *obs.Gauge
}

// newRunObs resolves the run-level series; nil registry disables everything.
// numSats is the constellation's slot count, the bound on every serving
// SatID. sketches opts in to the streaming-sketch telemetry (top-K popularity
// and latency quantile sketches); bucketOf may be nil when the policy has no
// consistent-hash bucket structure.
func newRunObs(reg *obs.Registry, numSats int, sketches bool, bucketOf func(cache.ObjectID) int) *runObs {
	if reg == nil {
		return nil
	}
	ro := &runObs{
		reg:         reg,
		uplinkBytes: reg.Counter("starcdn_sim_uplink_bytes_total"),
		islBytes:    reg.Counter("starcdn_sim_isl_bytes_total"),
		latency:     reg.Histogram("starcdn_sim_request_latency_ms", nil),
		kills:       reg.Counter("starcdn_sim_failures_total", obs.L("kind", "kill")),
		revives:     reg.Counter("starcdn_sim_failures_total", obs.L("kind", "revive")),
		perSat:      make([]satObs, numSats),
		bucketOf:    bucketOf,
	}
	for _, s := range Sources() {
		ro.bySource[s] = reg.Counter("starcdn_sim_requests_total", obs.L("source", s.String()))
	}
	if sketches {
		ro.pop = NewPopObs(reg, reg.Sketch("starcdn_sketch_serve_latency_ms", 0))
	}
	return ro
}

// record mirrors one served request into the live instruments. req is the
// global request index and traceID the sampled trace identity ("" when
// unsampled); both only feed sketch exemplars.
func (ro *runObs) record(out *Outcome, r *trace.Request, req int64, totalMs float64, traceID string) {
	if ro == nil {
		return
	}
	size := r.Size
	src := out.Source
	if !src.Valid() {
		src = SourceGround // never reached for well-formed policies
	}
	hit := src.Hit()
	ro.bySource[src].Inc()
	// The same rule as Metrics.record: a shed request moved no bytes.
	if (!hit || src == SourceGroundEdge) && src != SourceShed {
		ro.uplinkBytes.Add(size)
	}
	ro.islBytes.Add(out.ISLBytes)
	ro.latency.Observe(totalMs)
	if sat := out.ServerSat; sat >= 0 {
		so := &ro.perSat[sat]
		if so.rate == nil {
			so.rate = ro.reg.Gauge("starcdn_sim_sat_hit_rate",
				obs.L("sat", strconv.Itoa(int(sat))))
		}
		so.req++
		if hit {
			so.hit++
		}
		so.rate.Set(float64(so.hit) / float64(so.req))
	}
	if ro.pop != nil {
		bucket := -1
		if ro.bucketOf != nil {
			bucket = ro.bucketOf(r.Object)
		}
		ro.pop.Record(r, req, out.ServerSat, bucket, totalMs, traceID)
	}
}

// onFailure is the FailureSchedule.OnApply hook counting kills and revivals.
// It never returns an error, so Run's Advance stays infallible.
func (ro *runObs) onFailure(ev FailureEvent) error {
	if ev.Down {
		ro.kills.Inc()
	} else {
		ro.revives.Inc()
	}
	return nil
}
