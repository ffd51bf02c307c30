package sim

import (
	"strconv"
	"sync/atomic"

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

// obsBatchLen is how many requests the request path appends to a batch
// before it hands the batch to the consumer goroutine, and obsBatches how
// many batches a run cycles through: one filling, the rest queued or being
// applied.
const (
	obsBatchLen = 1024
	obsBatches  = 3
)

// runObs holds the pre-resolved obs instruments for one Run and the
// pipeline that keeps their updates off the request path. Handles are
// fetched once up front (registry lookups take a mutex). A nil *runObs is the
// disabled configuration; every method is a nil-safe no-op, so the hot loop
// pays one pointer test when observability is off.
//
// The request path only appends one PopRecord per request to the batch it
// fills (record). A full batch goes to one consumer goroutine, started with
// the first full batch, which applies batches in the order they were handed
// over; apply is the only code that touches the instruments. A barrier
// (sync) — before every recorder snapshot and at the end of Run — waits
// until the consumer has applied every queued batch, then applies the
// partial batch inline, so every snapshot and every read after Run sees
// exactly the requests before it, as if each had been applied in place. When
// nothing is queued the barrier costs no handoff, which is all a trace with
// fewer than obsBatchLen requests per recorder epoch ever pays.
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
	// top-K (-1, or a nil func, when the policy has no bucket structure or
	// pop is nil).
	bucketOf func(cache.ObjectID) int

	// The pipeline, owned by the request path's goroutine. cur is the batch
	// being filled. work carries full batches to the consumer and free
	// brings them back applied; queued counts the batches on work or being
	// applied, and spare holds the applied ones taken back. done closes
	// when the consumer exits. work is nil until the first handoff.
	cur    []PopRecord
	spare  [][]PopRecord
	queued int
	work   chan []PopRecord
	free   chan []PopRecord
	done   chan struct{}
	// live is the run a bound recorder's pre-snapshot hook reaches; finish
	// clears it, so the hook a finished run leaves behind is inert.
	live *atomic.Pointer[runObs]
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
		cur:         make([]PopRecord, 0, obsBatchLen),
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

// bind makes rec's pre-snapshot hook the pipeline's barrier, so every
// snapshot sees exactly the requests before its boundary. Run must be rec's
// only driver while it runs: the hook touches the run's batch. Nil-safe.
func (ro *runObs) bind(rec *obs.Recorder) {
	if ro == nil || rec == nil {
		return
	}
	// A recorder can outlive the run (experiments.Env reuses one), so the
	// hook reaches the run through a pointer finish clears.
	live := new(atomic.Pointer[runObs])
	live.Store(ro)
	ro.live = live
	rec.OnEpochPre(func(float64) { live.Load().sync() })
}

// record appends one served request to the batch, handing the batch to the
// consumer when it is full. req is the global request index and traceID the
// sampled trace identity ("" when unsampled); both only feed sketch
// exemplars.
func (ro *runObs) record(out *Outcome, r *trace.Request, req int64, totalMs float64, traceID string) {
	if ro == nil {
		return
	}
	ro.cur = append(ro.cur, PopRecord{Req: req, Object: r.Object, Size: r.Size,
		LatencyMs: totalMs, TraceID: traceID, Sat: out.ServerSat,
		src: out.Source, isl: out.ISLBytes})
	if len(ro.cur) == obsBatchLen {
		ro.handOff()
	}
}

// handOff queues the full batch for the consumer, starting it on the first
// call, and takes an empty batch to fill: a spare one, or the next one the
// consumer gives back, which makes the request path wait when every batch
// is queued.
func (ro *runObs) handOff() {
	if ro.work == nil {
		// Both channels hold every batch there is, so neither side ever
		// blocks on a send.
		ro.work = make(chan []PopRecord, obsBatches)
		ro.free = make(chan []PopRecord, obsBatches)
		ro.done = make(chan struct{})
		for range obsBatches - 1 {
			ro.spare = append(ro.spare, make([]PopRecord, 0, obsBatchLen))
		}
		go ro.consume()
	}
	ro.work <- ro.cur
	ro.queued++
	if n := len(ro.spare); n > 0 {
		ro.cur = ro.spare[n-1]
		ro.spare = ro.spare[:n-1]
		return
	}
	ro.cur = (<-ro.free)[:0]
	ro.queued--
}

// consume is the consumer goroutine: it applies batches in handoff order
// and gives each back.
func (ro *runObs) consume() {
	defer close(ro.done)
	for b := range ro.work {
		ro.apply(b)
		ro.free <- b
	}
}

// sync is the barrier: when it returns, every request recorded so far has
// been applied to the instruments. Nil-safe.
func (ro *runObs) sync() {
	if ro == nil {
		return
	}
	for ; ro.queued > 0; ro.queued-- {
		ro.spare = append(ro.spare, (<-ro.free)[:0])
	}
	ro.apply(ro.cur)
	ro.cur = ro.cur[:0]
}

// finish applies what is left, unbinds the recorder and stops the
// consumer: no goroutine of the run outlives Run. Nil-safe.
func (ro *runObs) finish() {
	if ro == nil {
		return
	}
	ro.sync()
	if ro.live != nil {
		ro.live.Store(nil)
	}
	if ro.work != nil {
		close(ro.work)
		<-ro.done
	}
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
