package sim

import (
	"fmt"
	"math/rand"

	"starcdn/internal/cache"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/sched"
	"starcdn/internal/shed"
	"starcdn/internal/trace"
)

// FailureEvent changes a satellite's availability at a point in simulated
// time. Transient failures (e.g. a cache server rebooting for a software
// update, §3.4) are served as plain misses; long-term ones (collision
// avoidance maneuvers, hardware loss) trigger the consistent-hashing remap.
type FailureEvent struct {
	TimeSec   float64
	Sat       orbit.SatID
	Down      bool
	Transient bool
}

// Config controls a simulation run.
type Config struct {
	// Seed drives the scheduler and all latency sampling.
	Seed int64
	// CollectLatency enables the per-request latency CDF (costs memory).
	CollectLatency bool
	// CollectPerSat enables per-satellite hit-rate meters.
	CollectPerSat bool
	// UplinkWindowSec, when positive, collects per-window uplink byte
	// counters for peak-utilisation analysis.
	UplinkWindowSec float64
	// ClassOf, when set, maps objects to a traffic-class index for
	// per-class metering (see workload.ClassOf for mixed traces).
	ClassOf func(obj cache.ObjectID) int
	// TrafficScale models the full (unsampled) traffic load for congestion:
	// the measured uplink demand is multiplied by this factor before
	// computing GSL utilisation and the resulting queueing delay. Zero
	// disables congestion modelling (the Fig. 10 idle-latency setting).
	TrafficScale float64
	// Failures are applied in time order as the trace replays. They must be
	// sorted by TimeSec.
	Failures []FailureEvent
	// Metrics, when non-nil, receives live per-source/per-satellite counters,
	// gauges, and latency histograms under the starcdn_sim_* names. Updates
	// are applied in request order, off the request path, and never touch
	// the seeded RNG streams, so enabling metrics cannot change results.
	// Every recorder snapshot and every read after Run sees all of the
	// requests before it; a live scrape during Run may trail by a few
	// thousand requests.
	Metrics *obs.Registry
	// Sketches opts in to streaming-sketch telemetry on the Metrics registry
	// (no-op when Metrics is nil): top-K popularity summaries for objects,
	// serving satellites, and consistent-hash buckets, plus relative-error
	// latency quantile sketches, all with trace exemplars. Sketch updates are
	// pure functions of the request stream — no RNG, no wall clock — so
	// results are byte-identical with sketches on or off, and a sequential
	// TCP replay of the same seed builds the identical top-K summaries.
	Sketches bool
	// Tracer, when non-nil, emits one JSONL span per sampled request with the
	// full hop chain (first-contact -> owner -> relay -> ground -> user-link).
	// Sampling is a pure hash of (tracer seed, request index), so it is
	// deterministic and independent of the run's RNGs.
	Tracer *obs.Tracer
	// Recorder, when non-nil, is ticked on simulated time as the trace
	// replays (one epoch per Recorder.EpochSec of trace time) and sealed at
	// the last request, turning the Metrics registry into a flight-recorder
	// time series. Like Metrics and Tracer it only reads run state — results
	// are byte-identical with the recorder on or off. Each snapshot Run takes
	// first folds the run's pending instrument updates, so it sees exactly
	// the requests before its boundary. A recorder reused by a later Run
	// carries on after its last point (Recorder.Resume).
	Recorder *obs.Recorder
	// Phases, when non-nil, attributes the run's wall-clock cost to the
	// pipeline stages (shed tick, scheduler lookup, hash ownership, cache op,
	// relay/ground path, obs emit). Build it with obs.NewSimPhases — the
	// runner and the StarCDN policy mark the obs.PhaseSim* stage indices.
	// Marks only read the monotonic clock into write-only accumulators — no
	// RNG, no simulation state — so results are byte-identical with phases on
	// or off. Bind the profiler to Recorder (BindRecorder) to flush stage
	// seconds per recorder epoch; Run always flushes the tail at the end.
	Phases *obs.PhaseProfiler
	// Shedder, when non-nil, closes the overload-control loop: it is ticked
	// on simulated time before each request, consulted for session
	// admission and the active shed stage, and fed the request's outcome.
	// Unlike Metrics/Tracer/Recorder it DOES change results — that is its
	// job — but deterministically: the same seed, trace, failures, and shed
	// config shed the identical request set, in the sim and in the
	// sequential TCP replayer alike.
	Shedder *shed.Controller
}

// Run replays the trace through the policy over the constellation. users[i]
// is the terminal position of trace location i.
func Run(c *orbit.Constellation, users []geo.Point, tr *trace.Trace, p Policy, cfg Config) (*Metrics, error) {
	if c == nil {
		return nil, fmt.Errorf("sim: nil constellation")
	}
	if p == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	if len(users) != len(tr.Locations) {
		return nil, fmt.Errorf("sim: %d users for %d trace locations",
			len(users), len(tr.Locations))
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	failures, err := NewFailureSchedule(c, cfg.Failures)
	if err != nil {
		return nil, err
	}
	// The bucket top-K needs the policy's consistent-hash structure; policies
	// without one simply have no bucket series.
	var bucketOf func(cache.ObjectID) int
	if bp, ok := p.(interface{ ObjectBucket(cache.ObjectID) int }); ok {
		bucketOf = bp.ObjectBucket
	}
	ro := newRunObs(cfg.Metrics, c.NumSlots(), cfg.Sketches, bucketOf)
	if ro != nil {
		failures.OnApply(ro.onFailure)
	}
	scheduler, err := sched.New(c, users, sched.DefaultEpochSec, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	metrics := NewMetrics(cfg.CollectLatency, cfg.CollectPerSat)
	if metrics.Latency != nil {
		metrics.Latency.Grow(len(tr.Requests)) // one sample per request
	}
	metrics.UplinkWindowSec = cfg.UplinkWindowSec
	if cfg.ClassOf != nil {
		metrics.PerClass = make(map[int]*cache.Meter)
	}
	pl := &pipeline{ro: ro, fold: &fold{c: c, users: users, reqs: tr.Requests, cfg: cfg,
		lat: DefaultLatencyModel(), rng: *rand.New(rand.NewSource(cfg.Seed + 1)), m: metrics,
		// Each memo has a cache line of padding on either side (see fold).
		epochSec: scheduler.EpochSec(), memoEpoch: make([]int64, len(users)+16)[8 : 8+len(users)],
		propMs: make([]float64, len(users)+16)[8 : 8+len(users)]}}
	pl.cur = pl.newBatch()

	var ctx ServeContext
	if len(cfg.Failures) > 0 {
		ctx.TransientDown = failures.TransientDown
	}
	// A recorder that already holds points continues after the last of them.
	recOrigin := cfg.Recorder.Resume()
	// One mark chain for the whole run, begun once: the shed mark of request
	// i+1 closes what the obs mark of request i opened, so the stage seconds
	// sum to the loop's wall time. Lap ends each request, which lets the clock
	// light one request per stride and time the rest as one dark stretch. With
	// phases off the marks are a single pointer test and never read the clock.
	pc := cfg.Phases.Clock()
	ctx.Phase = &pc
	pc.Begin()
	// The decision loop: everything after a decision — pricing, Metrics,
	// spans, instruments — is the pipeline's in-order fold over its records.
	for i := range tr.Requests {
		r := &tr.Requests[i]
		// Advance cannot fail here: the only hook ever registered (the obs
		// failure counters) never returns an error.
		_ = failures.Advance(r.TimeSec)
		// Ordering contract with the TCP replayer: failures advance, then
		// the shed controller closes its epochs, then the request is
		// decided — so stage changes land on identical request boundaries
		// in both pipelines.
		if cfg.Shedder != nil {
			cfg.Shedder.Tick(r.TimeSec)
		}
		if t := recOrigin + r.TimeSec; cfg.Recorder.Due(t) {
			pl.sync() // the snapshot sees exactly the requests before it
			cfg.Recorder.TickAt(t)
		}
		pc.Mark(obs.PhaseSimShed)
		first, visible := scheduler.FirstContact(r.Location, r.TimeSec)
		if !visible {
			first = -1
		}
		var span *obs.Span
		if cfg.Tracer.Sampled(int64(i)) {
			// The trace identity is the same pure (seed, index) derivation the
			// TCP replayer uses, so a sim run and a replay of the same seed
			// name their traces identically and can be cross-referenced.
			hi, lo := cfg.Tracer.TraceID(int64(i))
			span = &obs.Span{Req: int64(i), TimeSec: r.TimeSec, Loc: r.Location,
				Object: uint64(r.Object), Size: r.Size,
				TraceID: obs.SpanContext{TraceHi: hi, TraceLo: lo}.TraceString(),
				SpanID:  obs.SpanIDString(obs.DeriveSpanID(hi, lo, 0)),
				Proc:    "sim",
			}
			if first >= 0 {
				span.AddHop(obs.Hop{Kind: "first-contact", Sat: int(first)})
			}
		}
		ctx.Span = span
		ctx.First = first
		ctx.Req = r
		ctx.ShedStage = shed.StageNormal
		if cfg.Shedder != nil {
			ctx.ShedStage = cfg.Shedder.Stage()
		}
		pc.Mark(obs.PhaseSimSched)
		var out Outcome
		if cfg.Shedder != nil && first >= 0 && !cfg.Shedder.AdmitSession(r.Location, r.TimeSec) {
			// Stage ≥ 2 turned the session away: no cache touch, no
			// uplink, just the rejection riding the user link back.
			out = Outcome{Source: SourceShed, ServerSat: -1,
				Signal: shed.Signal{Action: shed.ActionRejectSession}}
			span.AddHop(obs.Hop{Kind: "shed", Sat: int(first)})
		} else {
			out = p.Serve(&ctx)
		}
		if cfg.Shedder != nil {
			// The burn signal is the ladder's verdict, as Fetched.Signal
			// gives the replay's controller, so the controllers agree.
			cfg.Shedder.Observe(out.Signal)
		}
		pl.add(record{first: int32(first), server: int32(out.ServerSat), legs: out.Legs,
			src: uint8(out.Source)}, span)
		pc.Mark(obs.PhaseSimObs)
		pc.Lap()
	}
	pl.finish()
	if cfg.Recorder != nil && len(tr.Requests) > 0 {
		cfg.Recorder.Seal(recOrigin + tr.Requests[len(tr.Requests)-1].TimeSec)
	}
	// Drain the tail into the histograms; a no-op when the recorder's Seal
	// (with a bound profiler) already flushed it.
	cfg.Phases.FlushEpoch()
	return metrics, nil
}

// NoCacheBentPipe is the "regular Starlink" baseline of Fig. 10: every
// request flows user -> satellite -> ground station -> terrestrial CDN, with
// no caching in space.
type NoCacheBentPipe struct{}

// Name implements Policy.
func (NoCacheBentPipe) Name() string { return "starlink-no-cache" }

// Serve implements Policy.
func (NoCacheBentPipe) Serve(ctx *ServeContext) Outcome {
	sat := ctx.First
	src := SourceGround
	if sat < 0 {
		src = SourceNoCover
	}
	return Outcome{Source: src, ServerSat: sat, Legs: Legs{Tail: TailGround}}
}

// TerrestrialCDN is the Fig. 10 baseline of a terrestrial user served by a
// terrestrial CDN edge; satellites are not involved at all.
type TerrestrialCDN struct{}

// Name implements Policy.
func (TerrestrialCDN) Name() string { return "terrestrial-cdn" }

// Serve implements Policy.
func (TerrestrialCDN) Serve(ctx *ServeContext) Outcome {
	return Outcome{Source: SourceGround, ServerSat: -1, Legs: Legs{Tail: TailTerrestrial}}
}
