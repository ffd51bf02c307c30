package replayer

import (
	"errors"
	"sync"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/trace"
)

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
// genuinely crash mid-replay while the decisions stay aligned with sim.Run's
// strictly time-ordered failure application.
func ReplayConcurrent(h *core.HashScheme, cluster *Cluster, users []geo.Point, tr *trace.Trace, opts Options) (cache.Meter, error) {
	var total cache.Meter
	rp, err := newReplay(h, cluster, users, tr, opts)
	if err != nil {
		return total, err
	}
	defer rp.close()
	// Per-location fabrics persist across segments so connection pools and
	// their retry state behave like long-lived terminal stacks.
	fabrics := make([]*tcpFabric, len(users))
	// Per-location sketch shards: each worker records into its own shard
	// with no lock at all (a segment runs one goroutine per location, and the
	// sketches are single-owner structures), and the segment barrier below —
	// wg.Wait orders it after every worker's writes — merges them into the
	// shared instruments in location order, a deterministic merge schedule:
	// the concurrent summaries are independent of goroutine interleaving (and,
	// below the eviction threshold, identical to a sequential replay's).
	shards := make([]*popShard, len(users))
	if rp.ro.popObs() != nil {
		for i := range shards {
			shards[i] = newPopShard()
		}
	}
	meters := make([]cache.Meter, len(users))
	errs := make([]error, len(users))

	perLoc := make([][]*planned, len(users))
	start := 0
	for start < len(tr.Requests) {
		// A segment runs up to (not including) the first request at or past
		// the next failure event, so events fire between segments exactly
		// where the sequential pipeline would fire them between requests.
		if err := rp.fs.Advance(tr.Requests[start].TimeSec); err != nil {
			return total, err
		}
		end := len(tr.Requests)
		if next, ok := rp.fs.NextEventTime(); ok {
			for end = start + 1; end < len(tr.Requests); end++ {
				if tr.Requests[end].TimeSec >= next {
					break
				}
			}
		}

		// Plan the segment sequentially (the scheduler is not safe for
		// concurrent use, and shed decisions stay deterministic this way).
		// Only the outcome feedback (Observe) arrives from the workers, which
		// can smear a signal into the next epoch — the same order looseness
		// concurrent replay already accepts for cache interleaving.
		for i := range perLoc {
			perLoc[i] = perLoc[i][:0]
		}
		plans := make([]planned, end-start)
		for i := range plans {
			p := &plans[i]
			if *p, err = rp.plan(start + i); err != nil {
				return total, err
			}
			perLoc[p.req.Location] = append(perLoc[p.req.Location], p)
		}

		var wg sync.WaitGroup
		for loc := range perLoc {
			if len(perLoc[loc]) == 0 {
				continue
			}
			if fabrics[loc] == nil {
				fabrics[loc] = rp.newFabric()
			}
			wg.Add(1)
			go func(loc int) {
				defer wg.Done()
				for _, p := range perLoc[loc] {
					if errs[loc] = rp.serve(fabrics[loc], p, &meters[loc], shards[loc]); errs[loc] != nil {
						return
					}
				}
			}(loc)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return total, err
		}
		// Segment barrier: fold the shards in, in location order, and reset
		// them for the next segment.
		if po := rp.ro.popObs(); po != nil {
			for _, ps := range shards {
				mergeShard(po, ps)
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
