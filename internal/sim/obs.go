package sim

import (
	"strconv"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/obs/sketch"
	"starcdn/internal/orbit"
)

// TraceSeed keys the trace sampling hash and the span identities of the
// tracers starcdn-sim and starcdn-replay build. It is one constant because a
// request carries the same trace identity in both pipelines only if they
// agree on it.
const TraceSeed = 1

// runObs holds the pre-resolved obs instruments for one Run, the obs fold the
// pipeline's consumer applies. Handles are fetched once up front (registry
// lookups take a mutex); nil is the disabled configuration. Instrument
// updates never read or advance the run's seeded RNG streams, so enabling
// metrics or tracing cannot change simulation results.
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
	// top-K (-1, or a nil func, when the policy has no bucket structure or
	// pop is nil).
	bucketOf func(cache.ObjectID) int
}

// PopObs is one set of streaming-sketch instruments — top-K popularity
// (objects, serving satellites, hash buckets) and a latency quantile sketch,
// all deterministic (see internal/obs/sketch) — and the one rule that updates
// them. sim.Run and the TCP replay feed every request through Apply in
// request order, which is what makes per-seed top-K parity between the
// pipelines an exact comparison. Updates are pure functions of the request
// stream — no RNG, no wall clock — so enabling them cannot change results.
type PopObs struct {
	Objects, Sats, Buckets *obs.TopK
	Latency                *obs.Sketch
}

// PopRecord is one served request as the telemetry sees it. Sat < 0 means no
// satellite served (no coverage, degraded, or session-rejected) and Bucket <
// 0 that the object has no consistent-hash bucket; a NaN LatencyMs (a
// replayed request that never crossed the wire) is skipped by the quantile
// sketch. TraceID is the sampled request's trace identity ("" when
// unsampled) and becomes the exemplar linking hot entries back to assembled
// distributed traces. The unexported fields carry what sim.Run's counters
// need besides.
type PopRecord struct {
	Req       int64
	Object    cache.ObjectID
	Size      int64
	LatencyMs float64
	TraceID   string
	Sat       orbit.SatID
	Bucket    int

	src Source
	isl int64
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

// Apply feeds recs, in order, into the sketches: each instrument takes its
// lock once for the whole slice (no-op on nil). Each instrument sees the
// same update sequence as one request at a time would give it, so the
// result is the same.
func (po *PopObs) Apply(recs []PopRecord) {
	if po == nil {
		return
	}
	po.Objects.ObserveEach(len(recs), func(i int) (uint64, sketch.Exemplar, bool) {
		return uint64(recs[i].Object), recs[i].exemplar(), true
	})
	po.Buckets.ObserveEach(len(recs), func(i int) (uint64, sketch.Exemplar, bool) {
		return uint64(recs[i].Bucket), recs[i].exemplar(), recs[i].Bucket >= 0
	})
	po.Sats.ObserveEach(len(recs), func(i int) (uint64, sketch.Exemplar, bool) {
		return uint64(recs[i].Sat), recs[i].exemplar(), recs[i].Sat >= 0
	})
	po.Latency.ObserveEach(len(recs), func(i int) (float64, sketch.Exemplar) {
		r := &recs[i]
		return r.LatencyMs, sketch.Exemplar{TraceID: r.TraceID, Req: r.Req, Value: r.LatencyMs}
	})
}

// exemplar is the top-K exemplar of r: its trace, index and size.
func (r *PopRecord) exemplar() sketch.Exemplar {
	return sketch.Exemplar{TraceID: r.TraceID, Req: r.Req, Value: float64(r.Size)}
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
	}
	for _, s := range Sources() {
		ro.bySource[s] = reg.Counter("starcdn_sim_requests_total", obs.L("source", s.String()))
	}
	if sketches {
		ro.pop = NewPopObs(reg, reg.Sketch("starcdn_sketch_serve_latency_ms", 0))
		ro.bucketOf = bucketOf
	}
	return ro
}

// apply mirrors a batch of served requests into the instruments, in order:
// the per-satellite gauges per record, the counters and the latency
// histogram once for the batch, then each popularity instrument in one pass.
func (ro *runObs) apply(b []PopRecord) {
	if len(b) == 0 {
		return
	}
	var bySource [numSources]int64
	var uplink, isl int64
	for i := range b {
		rec := &b[i]
		src := rec.src
		if !src.Valid() {
			src = SourceGround // never reached for well-formed policies
		}
		hit := src.Hit()
		bySource[src]++
		if src.Uplink() {
			uplink += rec.Size
		}
		isl += rec.isl
		if sat := rec.Sat; sat >= 0 {
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
		rec.Bucket = -1
		if ro.bucketOf != nil {
			rec.Bucket = ro.bucketOf(rec.Object)
		}
	}
	for src, n := range bySource {
		if n > 0 {
			ro.bySource[src].Add(n)
		}
	}
	ro.latency.ObserveEach(len(b), func(i int) float64 { return b[i].LatencyMs })
	ro.uplinkBytes.Add(uplink)
	ro.islBytes.Add(isl)
	ro.pop.Apply(b)
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
