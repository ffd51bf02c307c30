package sim

import (
	"strconv"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/obs/sketch"
	"starcdn/internal/orbit"
	"starcdn/internal/trace"
)

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
	bytesSource [numSources]*obs.Counter
	uplinkBytes *obs.Counter
	islBytes    *obs.Counter
	latency     *obs.Histogram
	kills       *obs.Counter
	revives     *obs.Counter
	// served/hits aggregate across sources: the denominator/numerator pair a
	// hit-rate SLO evaluates (ratio objectives need single series).
	served *obs.Counter
	hits   *obs.Counter
	reg    *obs.Registry
	perSat []satObs // indexed by SatID; rate is nil until the satellite first serves
	// pop is the opt-in streaming-sketch telemetry (Config.Sketches); nil
	// keeps the metrics-only fast path.
	pop *popObs
}

// popObs holds the streaming-sketch instruments of one run: top-K
// popularity (objects, serving satellites, hash buckets) and quantile
// latency sketches, all deterministic and mergeable (see internal/obs/
// sketch). Updates are pure functions of the request stream — no RNG, no
// wall clock — so enabling them cannot change simulation results, and a
// sequential TCP replay of the same seed builds identical top-K summaries.
type popObs struct {
	objects *obs.TopK
	sats    *obs.TopK
	buckets *obs.TopK
	latency *obs.Sketch
	perSat  []*obs.Sketch // indexed by SatID; nil until the satellite first serves
	// bucketOf maps an object to its consistent-hash bucket (-1 when the
	// policy has no bucket structure); nil disables the bucket top-K.
	bucketOf func(cache.ObjectID) int
	reg      *obs.Registry
}

// newPopObs resolves the sketch instruments under the shared popularity/
// sketch names (the same names the TCP replayer uses, which is what makes
// cross-pipeline top-K parity a straight series comparison). The top-Ks are
// keyed by integer identity — the update path never builds a key string;
// the Pop*Key renderers only run at exposition time for tracked entries.
func newPopObs(reg *obs.Registry, numSats int, bucketOf func(cache.ObjectID) int) *popObs {
	po := &popObs{
		objects:  reg.TopK("starcdn_popularity_objects", 0),
		sats:     reg.TopK("starcdn_popularity_sats", 0),
		buckets:  reg.TopK("starcdn_popularity_buckets", 0),
		latency:  reg.Sketch("starcdn_sketch_serve_latency_ms", 0),
		perSat:   make([]*obs.Sketch, numSats),
		bucketOf: bucketOf,
		reg:      reg,
	}
	po.objects.SetNamer(func(id uint64) string { return PopObjectKey(cache.ObjectID(id)) })
	po.sats.SetNamer(func(id uint64) string { return PopSatKey(orbit.SatID(id)) })
	po.buckets.SetNamer(func(id uint64) string { return PopBucketKey(int(id)) })
	return po
}

// PopObjectKey, PopSatKey, and PopBucketKey render the display names of the
// integer-keyed popularity summaries. Exported so the TCP replayer keys and
// names its summaries identically — the cross-pipeline parity tests compare
// entries by these rendered keys.
func PopObjectKey(obj cache.ObjectID) string {
	return "obj-" + strconv.FormatUint(uint64(obj), 10)
}

func PopSatKey(sat orbit.SatID) string { return "sat-" + strconv.Itoa(int(sat)) }

func PopBucketKey(b int) string { return "bucket-" + strconv.Itoa(b) }

// record feeds one request into the sketches. sat < 0 means no satellite
// served (no coverage, degraded, or session-rejected); traceID is the
// sampled request's trace identity ("" when unsampled) and becomes the
// exemplar linking hot entries back to assembled distributed traces.
func (po *popObs) record(r *trace.Request, req int64, sat orbit.SatID, totalMs float64, traceID string) {
	ex := sketch.Exemplar{TraceID: traceID, Req: req, Value: float64(r.Size)}
	po.objects.ObserveIDEx(uint64(r.Object), 1, ex)
	if po.bucketOf != nil {
		if b := po.bucketOf(r.Object); b >= 0 {
			po.buckets.ObserveIDEx(uint64(b), 1, ex)
		}
	}
	lex := sketch.Exemplar{TraceID: traceID, Req: req, Value: totalMs}
	po.latency.ObserveEx(totalMs, lex)
	if sat >= 0 {
		po.sats.ObserveIDEx(uint64(sat), 1, ex)
		sk := po.perSat[sat]
		if sk == nil {
			sk = po.reg.Sketch("starcdn_sketch_sat_serve_latency_ms", 0,
				obs.L("sat", strconv.Itoa(int(sat))))
			po.perSat[sat] = sk
		}
		sk.ObserveEx(totalMs, lex)
	}
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
		served:      reg.Counter("starcdn_sim_served_total"),
		hits:        reg.Counter("starcdn_sim_hits_total"),
		perSat:      make([]satObs, numSats),
	}
	for _, s := range Sources() {
		l := obs.L("source", s.String())
		ro.bySource[s] = reg.Counter("starcdn_sim_requests_total", l)
		ro.bytesSource[s] = reg.Counter("starcdn_sim_bytes_total", l)
	}
	if sketches {
		ro.pop = newPopObs(reg, numSats, bucketOf)
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
	ro.bytesSource[src].Add(size)
	ro.served.Inc()
	if hit {
		ro.hits.Inc()
	}
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
		ro.pop.record(r, req, out.ServerSat, totalMs, traceID)
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
