package replayer

import (
	"math"
	"sync"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/sched"
	"starcdn/internal/shed"
	"starcdn/internal/sim"
	"starcdn/internal/trace"
)

// concurrentJob is one precomputed request assignment.
type concurrentJob struct {
	req   *trace.Request
	index int64 // global request index (drives deterministic trace sampling)
	home  orbitSat
	first orbitSat
	addr  string // empty when the request is accounted without contact
	// Overload-control decisions resolve in the sequential precompute (the
	// controller's clock and session table must advance in global request
	// order); workers only act them out.
	stage        shed.Stage
	shedReject   bool // stage ≥ 2 turned the session away
	shedRemote   bool // stage 3 rejects the remote-owner request outright
	directGround bool // stage ≥ 1 sheds the remote fetch
}

// ReplayConcurrent drives the trace through the TCP cluster with one worker
// goroutine per location, mirroring the paper's asynchronous multi-process
// replayer: each location replays its own request stream in order while the
// satellite cache servers serialise access per cache. Results can differ
// slightly from the sequential Replay because cross-location interleaving is
// no longer globally ordered — exactly as on real hardware.
//
// With Options.Failures the trace is processed in segments bounded by
// failure-event times: within a segment every worker runs concurrently;
// at a segment boundary the workers quiesce, the due events are applied
// (constellation availability flips, cluster servers are killed/revived,
// in-flight connections sever), and the replay resumes — so satellites
// genuinely crash mid-replay while the decision pipeline stays aligned with
// sim.Run's strictly time-ordered failure application.
func ReplayConcurrent(h *core.HashScheme, cluster *Cluster, users []geo.Point, tr *trace.Trace, opts Options) (cache.Meter, error) {
	var total cache.Meter
	if err := validate(h, cluster, users, tr, opts); err != nil {
		return total, err
	}
	c := h.Grid().Constellation()
	// Scheduling decisions are precomputed sequentially per segment (the
	// scheduler is not safe for concurrent use), then workers replay
	// independently.
	scheduler, err := sched.New(c, users, opts.EpochSec, opts.Seed)
	if err != nil {
		return total, err
	}
	fs, err := newSchedule(c, cluster, opts)
	if err != nil {
		return total, err
	}
	ro := newReplayObs(opts.Obs, opts.Sketches)

	// Per-location clients persist across segments so connection pools and
	// their retry state behave like long-lived terminal stacks.
	clients := make([]*Client, len(users))
	// Per-location sketch shards: each worker records into its own shard
	// with no lock at all (a segment runs one goroutine per location, and the
	// sketches are single-owner structures), and the segment barrier below —
	// wg.Wait orders it after every worker's writes — merges them into the
	// shared instruments in location order — a
	// deterministic merge schedule, so the concurrent summaries are
	// independent of goroutine interleaving (and, below the eviction
	// threshold, identical to a sequential replay's).
	var shards []*popShard
	if ro.sketching() {
		shards = make([]*popShard, len(users))
		for i := range shards {
			shards[i] = newPopShard()
		}
	}
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				// Close errors after the replay cannot affect the meters.
				_ = cl.Close()
			}
		}
	}()
	meters := make([]cache.Meter, len(users))
	if opts.Recorder != nil {
		stop := opts.Recorder.StartWall()
		defer stop()
	}

	var (
		mu     sync.Mutex
		runErr error
	)

	perLoc := make([][]concurrentJob, len(users))
	start := 0
	for start < len(tr.Requests) {
		// A segment runs up to (not including) the first request at or past
		// the next failure event, so events fire between segments exactly
		// where the sequential pipeline would fire them between requests.
		if err := fs.Advance(tr.Requests[start].TimeSec); err != nil {
			return total, err
		}
		end := len(tr.Requests)
		if next, ok := fs.NextEventTime(); ok {
			for end = start + 1; end < len(tr.Requests); end++ {
				if tr.Requests[end].TimeSec >= next {
					break
				}
			}
		}

		// Sequential precompute: homes, §3.4 degradations, and dial
		// addresses for this segment (server lazy-starts happen here, so
		// workers never race on construction).
		for i := range perLoc {
			perLoc[i] = perLoc[i][:0]
		}
		for i := start; i < end; i++ {
			r := &tr.Requests[i]
			// The controller clock and session table advance here, in global
			// request order, so shed decisions stay deterministic; only the
			// outcome feedback (Observe) arrives from the workers, which can
			// smear a signal into the next epoch — the same order looseness
			// concurrent replay already accepts for cache interleaving.
			if opts.Shedder != nil {
				opts.Shedder.Tick(r.TimeSec)
			}
			j := concurrentJob{req: r, index: int64(i), home: -1, first: -1}
			home, first, serve := homeFor(h, scheduler, fs, r, opts.Hashing)
			j.first = first
			if opts.Shedder != nil {
				j.stage = opts.Shedder.Stage()
				if first >= 0 && !opts.Shedder.AdmitSession(r.Location, r.TimeSec) {
					j.shedReject = true
					perLoc[r.Location] = append(perLoc[r.Location], j)
					continue
				}
			}
			if serve {
				if j.stage.Sheds(core.ValueRemoteFetch) && home != first {
					// Decided here so no server is lazily started for a
					// satellite never contacted. Stage 3 rejects the
					// remote-owner request outright (it cannot be a hit
					// without the shed ISL fetch); stages 1-2 serve the
					// §3.4-shaped ground miss instead.
					if j.stage.Sheds(core.ValueMissFetch) {
						j.shedRemote = true
					} else {
						j.directGround = true
					}
					j.home = home
					perLoc[r.Location] = append(perLoc[r.Location], j)
					continue
				}
				addr, err := cluster.Addr(home)
				if err != nil {
					return total, err
				}
				j.home, j.addr = home, addr
			}
			perLoc[r.Location] = append(perLoc[r.Location], j)
		}

		var wg sync.WaitGroup
		for loc := range perLoc {
			if len(perLoc[loc]) == 0 {
				continue
			}
			if clients[loc] == nil {
				clients[loc] = newReplayClient(opts)
			}
			wg.Add(1)
			go func(loc int) {
				defer wg.Done()
				client := clients[loc]
				m := &meters[loc]
				var ps *popShard
				if shards != nil {
					ps = shards[loc]
				}
				for _, j := range perLoc[loc] {
					rt := newReqTrace(opts, j.index, j.req, j.first)
					// BucketOf is a pure hash (safe to share across workers);
					// shed and degraded paths feed the bucket top-K exactly
					// like the sequential pipeline.
					bucket := -1
					if ps != nil && opts.Hashing {
						bucket = int(h.BucketOf(j.req.Object))
					}
					if j.shedReject {
						rt.addHop(obs.Hop{Kind: "shed", Sat: int(j.first)})
						finishReqTrace(opts.Tracer, rt, sim.SourceShed, time.Time{})
						ro.record(sim.SourceShed, j.req.Size)
						ps.record(j.req, j.index, -1, bucket, math.NaN(), rt.traceID())
						m.Record(j.req.Size, false)
						opts.Shedder.Observe(shed.Signal{Action: shed.ActionRejectSession})
						continue
					}
					if j.shedRemote {
						rt.addHop(obs.Hop{Kind: "shed", Sat: int(j.home)})
						finishReqTrace(opts.Tracer, rt, sim.SourceShed, time.Time{})
						ro.record(sim.SourceShed, j.req.Size)
						ps.record(j.req, j.index, j.home, bucket, math.NaN(), rt.traceID())
						m.Record(j.req.Size, false)
						opts.Shedder.Observe(shed.Signal{Action: shed.ActionHitOnly})
						continue
					}
					if j.directGround {
						rt.addHop(obs.Hop{Kind: "ground", Sat: -1})
						finishReqTrace(opts.Tracer, rt, sim.SourceGround, time.Time{})
						ro.record(sim.SourceGround, j.req.Size)
						ps.record(j.req, j.index, -1, bucket, math.NaN(), rt.traceID())
						m.Record(j.req.Size, false)
						opts.Shedder.Observe(shed.Signal{Action: shed.ActionDirectGround})
						continue
					}
					if j.home < 0 {
						src := degradedSource(j.first)
						rt.addHop(obs.Hop{Kind: "ground", Sat: -1})
						finishReqTrace(opts.Tracer, rt, src, time.Time{})
						ro.record(src, j.req.Size)
						ps.record(j.req, j.index, -1, bucket, math.NaN(), rt.traceID())
						m.Record(j.req.Size, false)
						if opts.Shedder != nil {
							opts.Shedder.Observe(shed.Signal{Degraded: src == sim.SourceGround})
						}
						continue
					}
					reqStart := time.Now()
					src, sig, err := serveRequest(h, cluster, client, j.home, j.first,
						j.addr, j.req, opts, j.stage, rt)
					if err != nil {
						setErr(&mu, &runErr, err)
						return
					}
					finishReqTrace(opts.Tracer, rt, src, reqStart)
					ro.record(src, j.req.Size)
					ps.record(j.req, j.index, j.home, bucket, wallMs(reqStart), rt.traceID())
					m.Record(j.req.Size, src.Hit())
					if opts.Shedder != nil {
						opts.Shedder.Observe(sig)
					}
				}
			}(loc)
		}
		wg.Wait()
		if runErr != nil {
			return total, runErr
		}
		// Segment barrier: fold every worker's sketch shard into the shared
		// instruments in location order (a fixed merge schedule — the
		// summaries cannot depend on which worker finished first), then reset
		// the shards for the next segment.
		if ro.sketching() {
			for _, ps := range shards {
				ro.pop.mergeShard(ps)
				ps.reset()
			}
		}
		start = end
	}

	for i := range meters {
		total.Merge(meters[i])
	}
	checkMeter(total, tr)
	return total, nil
}

func setErr(mu *sync.Mutex, dst *error, err error) {
	mu.Lock()
	if *dst == nil {
		*dst = err
	}
	mu.Unlock()
}
