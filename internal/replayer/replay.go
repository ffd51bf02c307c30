package replayer

import (
	"fmt"
	"math"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/sched"
	"starcdn/internal/sim"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
)

// orbitSat shortens the satellite ID type in this file's signatures.
type orbitSat = orbit.SatID

// FaultPolicy enables fault-tolerant operation: per-attempt I/O deadlines,
// bounded dials, and retry with seeded jittered backoff. When a satellite
// server stays unreachable past the retry budget the replayer applies the
// paper's §3.4 degradation — the request is recorded as a miss served from
// the ground (a transient outage from the client's point of view) and the
// replay continues; it never errors out because one satellite died.
type FaultPolicy struct {
	// IOTimeout is the per-attempt read/write deadline (0 selects 250ms).
	IOTimeout time.Duration
	// Retry bounds attempts and backoff; the zero value selects
	// DefaultRetryPolicy (3 attempts, 2ms..50ms jittered backoff).
	Retry RetryPolicy
	// Injector, when non-nil, adds deterministic client-side fault
	// injection (refused dials, resets, stalls, truncated frames) in front
	// of every connection.
	Injector *FaultInjector
}

// defaultFaultTimeout bounds every dial under a FaultPolicy, and frame
// exchanges when the policy picks no IOTimeout. Loopback round trips are
// microseconds and a dead server refuses its dial at once, so 250ms cleanly
// separates "slow" from "dead" without making a chaos replay crawl.
const defaultFaultTimeout = 250 * time.Millisecond

// options lowers the policy into the client's options.
func (p *FaultPolicy) options(seed int64) clientOptions {
	o := clientOptions{Seed: seed}
	if p == nil {
		return o
	}
	o.DialTimeout = defaultFaultTimeout
	o.IOTimeout = p.IOTimeout
	if o.IOTimeout <= 0 {
		o.IOTimeout = defaultFaultTimeout
	}
	o.Retry = p.Retry
	if o.Retry.MaxAttempts == 0 {
		o.Retry = DefaultRetryPolicy()
	}
	if p.Injector != nil {
		o.Dial = p.Injector.Dialer()
	}
	return o
}

// Options configures a distributed replay.
type Options struct {
	Hashing bool
	Relay   bool
	Seed    int64
	// Fault enables fault-tolerant operation (deadlines, retries, §3.4
	// degradation). Nil preserves the legacy fail-fast behaviour: the
	// first network error aborts the replay.
	Fault *FaultPolicy
	// Failures is a time-ordered §3.4 failure schedule applied as the
	// trace replays: each event deactivates/reactivates the satellite in
	// the constellation AND kills/revives its cluster server, in lockstep
	// with how sim.Run applies Config.Failures — which is what makes the
	// two pipelines cross-checkable under identical chaos. Transient
	// outages degrade to ground miss-throughs; long-term ones remap
	// buckets via core.HashScheme. Non-empty Failures require Fault.
	Failures []sim.FailureEvent
	// Obs, when non-nil, receives the replay-level per-source request and
	// byte counters (starcdn_replay_*). Pass the same registry in the
	// cluster's ServerOptions.Obs and here to get server-, client-, and
	// replay-level series on one exposition.
	Obs *obs.Registry
	// Sketches opts in to streaming-sketch telemetry on the Obs registry
	// (no-op when Obs is nil): the same top-K popularity summaries sim.Run
	// builds (starcdn_popularity_*, identical names and keys, so a replay
	// and a sim run of one seed produce identical top-K entries) plus a
	// wall-clock latency quantile sketch (starcdn_sketch_replay_wall_ms)
	// over the requests actually served over TCP. Sketch updates never touch
	// the seeded simulation streams, so results are identical on or off, and
	// both replays record in request order, so their summaries are equal.
	Sketches bool
	// Tracer, when non-nil, emits one JSONL span per sampled request with
	// wall-clock per-hop latencies measured around the real TCP exchanges.
	Tracer *obs.Tracer
	// Propagate sends each sampled request's trace context (trace ID, hop
	// span ID, sampled bit) to the satellite servers ahead of its frames, so
	// their per-operation spans join the client's distributed trace
	// (stitched back together by starcdn-trace -assemble). It requires
	// Tracer and costs one extra OpTraceContext frame per sampled exchange;
	// off, the servers see plain frames. Propagation never touches the
	// seeded simulation streams — trace identity is a pure function of
	// (tracer seed, request index).
	Propagate bool
	// Recorder, when non-nil, is ticked on wall-clock epochs for the
	// duration of the replay, turning the Obs registry into a queryable
	// flight-recorder time series (see obs.Recorder).
	Recorder *obs.Recorder
	// Phases, when non-nil, attributes each round trip's wall-clock cost to
	// the replay stages (dial, frame write, frame read, retry
	// backoff) as starcdn_phase_stage_seconds{pipeline="replay"} histograms.
	// Build it with obs.NewReplayPhases; bind it to Recorder (BindRecorder)
	// to flush per wall-clock epoch. Like Obs, it cannot change behaviour.
	Phases *obs.PhaseProfiler
}

// replay is what one run of the window plans, serves and commits requests
// with.
type replay struct {
	ladder    sim.Ladder
	cluster   *Cluster
	client    *Client // a terminal's connection pool and retry state
	scheduler *sched.Scheduler
	fs        *sim.FailureSchedule
	tr        *trace.Trace
	opts      Options
	ro        *replayObs
	stopRec   func() // stops the wall-clock recorder ticks; nil without a recorder
}

// newReplay checks the arguments, binds the failure schedule to the
// constellation with the cluster's kill/revive as its hook, and starts the
// recorder; the caller defers close.
func newReplay(h *core.HashScheme, cluster *Cluster, users []geo.Point, tr *trace.Trace, opts Options) (*replay, error) {
	if h == nil || cluster == nil {
		return nil, fmt.Errorf("replayer: nil hash scheme or cluster")
	}
	if len(users) != len(tr.Locations) {
		return nil, fmt.Errorf("replayer: %d users for %d locations", len(users), len(tr.Locations))
	}
	if len(opts.Failures) > 0 && opts.Fault == nil {
		return nil, fmt.Errorf("replayer: a failure schedule requires a FaultPolicy")
	}
	c := h.Grid().Constellation()
	scheduler, err := sched.New(c, users, sched.DefaultEpochSec, opts.Seed)
	if err != nil {
		return nil, err
	}
	fs, err := sim.NewFailureSchedule(c, opts.Failures)
	if err != nil {
		return nil, err
	}
	co := opts.Fault.options(opts.Seed)
	co.Obs, co.Tracer, co.Phases = opts.Obs, opts.Tracer, opts.Phases
	client := newClientOpts(co)
	fs.OnApply(func(ev sim.FailureEvent) error {
		if !ev.Down {
			return cluster.Revive(ev.Sat)
		}
		// A crash severs both ends: a pooled connection left behind would fail
		// its next frame after the write, when a fetch cannot be retried.
		if err := cluster.Kill(ev.Sat); err != nil {
			return err
		}
		addr, err := cluster.Addr(ev.Sat)
		client.forget(addr)
		return err
	})
	rp := &replay{
		ladder:  opts.ladder(h),
		cluster: cluster, client: client,
		scheduler: scheduler, fs: fs, tr: tr, opts: opts,
		ro: newReplayObs(opts.Obs, opts.Sketches),
	}
	if opts.Recorder != nil {
		rp.stopRec = opts.Recorder.StartWall()
	}
	return rp, nil
}

// ladder is the decision ladder the options select. With hashing off it runs
// over the one-bucket scheme on h's grid, as sim.NewStarCDN does.
func (o *Options) ladder(h *core.HashScheme) sim.Ladder {
	if !o.Hashing {
		h = core.OneBucket(h.Grid())
	}
	return sim.Ladder{Hash: h, Relay: o.Relay}
}

// ContactedSats dry-runs the replay's routing decisions — the scheduler's
// first contact, then sim.Ladder's Route — over the constellation as it
// stands, no failure schedule applied, and returns the distinct satellites
// the replay would contact, in first-contact order. It is the chaos candidate
// set: a kill fraction of it is a fraction of the servers that matter.
func ContactedSats(h *core.HashScheme, users []geo.Point, tr *trace.Trace, opts Options) ([]orbit.SatID, error) {
	scheduler, err := sched.New(h.Grid().Constellation(), users, sched.DefaultEpochSec, opts.Seed)
	if err != nil {
		return nil, err
	}
	ladder := opts.ladder(h)
	seen := make(map[orbit.SatID]bool)
	var sats []orbit.SatID
	for i := range tr.Requests {
		r := &tr.Requests[i]
		first, visible := scheduler.FirstContact(r.Location, r.TimeSec)
		if !visible {
			continue
		}
		if rt := ladder.Route(first, r.Object, nil); rt.Contact && !seen[rt.Home] {
			seen[rt.Home] = true
			sats = append(sats, rt.Home)
		}
	}
	return sats, nil
}

// close stops the recorder and the pooled loopback connections; a close
// error after a completed replay cannot invalidate the measured meter.
func (rp *replay) close() {
	if rp.stopRec != nil {
		rp.stopRec()
	}
	_ = rp.client.Close()
}

// orderPoint reports whether a failure event falls due at trace time t: the
// one point where planning reads what earlier requests did, so the window
// must drain first.
func (rp *replay) orderPoint(t float64) bool {
	next, ok := rp.fs.NextEventTime()
	return ok && next <= t
}

// planned is one request with everything decided before a cache is contacted.
type planned struct {
	req   *trace.Request
	index int64 // global request index (drives deterministic trace sampling)
	route sim.Route
	addr  string      // the owner's dial address when route.Contact
	relay [2]orbitSat // the west and east neighbours it may probe, -1 for none
}

// plan decides request i up to the first cache contact. It runs on the
// window's planning goroutine, in request order: the scheduler and lazy
// server starts (Cluster.Addr) are touched here. Ordering contract with
// sim.Run: the caller advances failures, then the request is decided.
func (rp *replay) plan(i int) (planned, error) {
	r := &rp.tr.Requests[i]
	p := planned{req: r, index: int64(i), relay: [2]orbitSat{-1, -1}}
	first, visible := rp.scheduler.FirstContact(r.Location, r.TimeSec)
	if !visible {
		first = -1
	}
	p.route = rp.ladder.Route(first, r.Object, rp.fs.TransientDown)
	if !p.route.Contact {
		return p, nil
	}
	if rp.ladder.Relay {
		for i, d := range [2]topo.Direction{topo.West, topo.East} {
			if nb, ok := rp.ladder.Hash.RelayNeighbor(p.route.Home, d); ok {
				p.relay[i] = nb
			}
		}
	}
	var err error
	p.addr, err = rp.cluster.Addr(p.route.Home)
	return p, err
}

// request is a window slot: a planned request, its frame on the wire (see
// fabric.go) and, once served, its verdict.
type request struct {
	planned
	w      *window
	rt     *reqTrace
	c      call // the request's frame on the wire; it has one at a time
	got    sim.Fetched
	err    error
	wallMs float64       // NaN without contact: nothing to measure, the sketch skips it
	start  chan struct{} // hands the request to its slot's goroutine
	done   chan struct{} // signals that it is served
}

// serve carries a planned request to its verdict. When the request is sampled
// each TCP exchange appends a hop with its measured wall-clock latency; a
// verdict reached without contact keeps the hop the sim pipeline records for
// it, so the two hop chains stay comparable.
func (rp *replay) serve(r *request) {
	r.rt = newReqTrace(&rp.opts, r.index, r.req, r.route.First)
	r.got, r.err, r.wallMs = r.route.Fetched, nil, math.NaN()
	if !r.route.Contact {
		r.rt.addHop(r.route.Hop())
		return
	}
	start := time.Now()
	r.c.req = r.index
	if r.got, r.err = rp.ladder.Fetch(r, r.route, r.req, nil); r.err != nil {
		return
	}
	if r.got.Source == sim.SourceGround && !r.got.Degraded {
		// The owner admitted the copy in its fetch frame; this hop stands
		// for the ground fetch behind it.
		_, hopID := r.rt.nextHop()
		r.rt.addHop(obs.Hop{Kind: "ground", Sat: int(r.route.Home), SpanID: hopID})
	}
	r.wallMs = wallMs(start)
}

// commit accounts a served request, in request order: span, counters,
// sketches and meter.
func (rp *replay) commit(r *request, m *cache.Meter) error {
	if r.err != nil {
		return r.err
	}
	src := r.got.Source
	r.rt.finish(rp.opts.Tracer, src, r.wallMs)
	rp.ro.record(src)
	if rp.ro != nil && rp.ro.pop != nil {
		// The bucket key is a pure function of the object, so every path —
		// degraded or served — feeds the bucket top-K.
		bucket := int(rp.ladder.Hash.BucketOf(r.req.Object))
		rp.ro.pop.Apply([]sim.PopRecord{{Req: r.index, Object: r.req.Object, Size: r.req.Size,
			LatencyMs: r.wallMs, TraceID: r.rt.traceID(), Sat: r.route.Home, Bucket: bucket}})
	}
	m.Record(r.req.Size, src.Hit())
	return nil
}

// wallMs measures elapsed wall-clock milliseconds since start.
func wallMs(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// checkMeter checks a completed replay's byte accounting: every trace request
// recorded exactly once, hits and misses partitioning the bytes.
func checkMeter(m cache.Meter, requests int) error {
	if m.Requests != int64(requests) || m.BytesHit+m.BytesMissed != m.BytesTotal {
		return fmt.Errorf("replayer: meter recorded %d of %d requests, hit %d + missed %d of %d bytes",
			m.Requests, requests, m.BytesHit, m.BytesMissed, m.BytesTotal)
	}
	return nil
}

// Replay drives a trace through a TCP cluster using StarCDN's request flow:
// schedule a first-contact satellite, route to the bucket owner, fetch over
// TCP (a miss admits the copy the request brings back), relay-probe
// same-bucket neighbours on a miss, else the ground — sim.Ladder, the
// decision code sim.StarCDN runs, so the two can be cross-validated request
// for request and, with Options.Failures, kill for kill. It serves one
// request at a time: a window one wide.
func Replay(h *core.HashScheme, cluster *Cluster, users []geo.Point, tr *trace.Trace, opts Options) (cache.Meter, error) {
	return drive(h, cluster, users, tr, opts, 1)
}

// ReplayConcurrent is Replay with concurrentWindow requests in flight,
// pipelined to each server in request order (see window); its result equals
// Replay's and sim.Run's request for request, under kills too.
func ReplayConcurrent(h *core.HashScheme, cluster *Cluster, users []geo.Point, tr *trace.Trace, opts Options) (cache.Meter, error) {
	return drive(h, cluster, users, tr, opts, concurrentWindow)
}

// reqTrace bundles one sampled request's span with its distributed-trace
// identity. A nil *reqTrace (the common, unsampled case) ignores every call,
// so the serving path needs no guards. Hop span IDs are deterministic: the
// n-th allocated hop of a trace is DeriveSpanID(hi, lo, n) with n=0 the root,
// so a sequential replay of a fixed seed names its spans identically across
// runs — and identically to the sim pipeline's trace IDs for the same seed.
type reqTrace struct {
	span      *obs.Span
	hi, lo    uint64
	propagate bool
	hop       uint64 // ordinal of the last allocated hop span ID
}

// newReqTrace starts the trace record for request index i, or returns nil
// when the request is not sampled. The root span carries the derived trace
// identity whether or not wire propagation is on (the IDs are free and make
// sim/replay span files cross-referenceable).
func newReqTrace(opts *Options, i int64, r *trace.Request, first orbitSat) *reqTrace {
	if !opts.Tracer.Sampled(i) {
		return nil
	}
	rt := &reqTrace{propagate: opts.Propagate}
	rt.hi, rt.lo = opts.Tracer.TraceID(i)
	rt.span = &obs.Span{Req: i, TimeSec: r.TimeSec, Loc: r.Location,
		Object: uint64(r.Object), Size: r.Size,
		TraceID: obs.SpanContext{TraceHi: rt.hi, TraceLo: rt.lo}.TraceString(),
		SpanID:  obs.SpanIDString(obs.DeriveSpanID(rt.hi, rt.lo, 0)),
		Proc:    "client",
	}
	if first >= 0 {
		rt.span.AddHop(obs.Hop{Kind: "first-contact", Sat: int(first)})
	}
	return rt
}

// nextHop allocates the next hop's deterministic span ID, returning the wire
// context to propagate (nil unless propagation is on and the request is
// sampled) and the hop's span ID string for the Hop record. Server-side
// operation spans emitted under the returned context carry the hop span as
// their Parent, which is how -assemble nests them beneath the right hop.
func (t *reqTrace) nextHop() (sc *obs.SpanContext, spanID string) {
	if t == nil {
		return nil, ""
	}
	t.hop++
	return t.cur(), obs.SpanIDString(obs.DeriveSpanID(t.hi, t.lo, t.hop))
}

// cur returns the wire context of the most recently allocated hop span, for
// exchanges that belong to an already-open hop (the relay write-back admit).
// Nil before the first hop, when unsampled, or with propagation off.
func (t *reqTrace) cur() *obs.SpanContext {
	if t == nil || !t.propagate || t.hop == 0 {
		return nil
	}
	id := obs.DeriveSpanID(t.hi, t.lo, t.hop)
	return &obs.SpanContext{TraceHi: t.hi, TraceLo: t.lo, Parent: id, Sampled: true}
}

// traceID returns the trace identity string ("" when unsampled) — the
// sketch-exemplar link back to the assembled distributed trace.
func (t *reqTrace) traceID() string {
	if t == nil {
		return ""
	}
	return t.span.TraceID
}

// addHop appends one hop to the underlying span (nil-safe).
func (t *reqTrace) addHop(h obs.Hop) {
	if t == nil {
		return
	}
	t.span.AddHop(h)
}

// finish stamps the verdict on the root span and emits it. wallLatencyMs is
// NaN for a request that never contacted a satellite (no wall time to
// measure).
func (t *reqTrace) finish(tr *obs.Tracer, src sim.Source, wallLatencyMs float64) {
	if t == nil {
		return
	}
	t.span.Source, t.span.Hit = src.String(), src.Hit()
	if !math.IsNaN(wallLatencyMs) {
		t.span.WallMs = wallLatencyMs
	}
	tr.Emit(t.span)
}
