package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/replayer"
)

const (
	// A run sets up at least minSetups times and, while set-up is cheap,
	// until setupBudgetSec (or a quarter of --seconds, if less) are spent or
	// maxSetups are done; setup_s is the median. A 0.1 s set-up needs the
	// extra repeats to be steady, a 2 s one cannot afford them.
	minSetups      = 3
	maxSetups      = 15
	setupBudgetSec = 2.0
	// minIterations is the fewest timed iterations a run reports on, however
	// short the --seconds budget.
	minIterations = 3
)

// result is what one benchmark run reports.
type result struct {
	spec    spec
	metrics *metricSet
	// samples holds the per-iteration values behind a host-time metric.
	samples map[string][]float64
	// outcome is the sequential, in-process answer the run was checked
	// against (end-to-end runs only).
	outcome   outcome
	attempted int64
	problems  []string
}

func (r *result) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// failed counts every operation as failed once any check failed: a wrong
// answer served fast is not throughput.
func (r *result) failed() int64 {
	if r.correct() {
		return 0
	}
	return r.attempted
}

// iteration is one pass of the trace through the workload's program.
type iteration struct {
	cost
	meter cache.Meter // the program's own count of requests, hits and bytes
	out   outcome     // sim programs only: everything sim.Run reported
}

func (in *inputs) iterate(t *tracer) (iteration, error) {
	if in.spec.Program == progSim {
		m, c, err := in.runSim(in.simConfig(in.spec.Obs), t)
		if err != nil {
			return iteration{}, err
		}
		return iteration{cost: c, meter: m.Meter, out: outcomeOf(m)}, nil
	}
	meter, c, err := in.runReplay(replayer.Options{}, t)
	return iteration{cost: c, meter: meter}, err
}

// checker holds the answers every iteration of a run must give.
type checker struct {
	in  *inputs
	res *result
	// ref is the sequential, in-process answer for the trace: the first
	// iteration's on a sim workload, a sim.Run of the same trace and seed on
	// a replay workload (sequential replay matches sim.Run hit for hit, which
	// replay_seq_hits checks on every run).
	ref    outcome
	hasRef bool
}

func newChecker(in *inputs, res *result) (*checker, error) {
	c := &checker{in: in, res: res}
	if in.spec.Program != progSim {
		m, _, err := in.runSim(in.simConfig(false), nil)
		if err != nil {
			return nil, fmt.Errorf("reference sim.Run: %w", err)
		}
		c.setRef(outcomeOf(m))
	}
	return c, nil
}

func (c *checker) setRef(o outcome) {
	c.ref, c.hasRef = o, true
	if o.Requests != int64(c.in.requests()) {
		c.res.failf("reference counted %d requests, trace has %d", o.Requests, c.in.requests())
	}
	if o.bySourceTotal() != o.Requests {
		c.res.failf("by-source counts sum to %d, requests are %d", o.bySourceTotal(), o.Requests)
	}
}

func (c *checker) check(it iteration) {
	c.res.attempted += int64(c.in.requests())
	if it.meter.Requests != int64(c.in.requests()) {
		c.res.failf("program counted %d requests, trace has %d", it.meter.Requests, c.in.requests())
	}
	switch {
	case c.in.spec.Program == progSim:
		if !c.hasRef {
			c.setRef(it.out)
		} else if it.out != c.ref {
			c.res.failf("iterations disagree: %+v, first was %+v", it.out, c.ref)
		}
	case c.in.spec.HitRateTol == 0:
		if it.meter.Hits != c.ref.Hits || it.meter.BytesTotal != c.ref.BytesTotal || it.meter.BytesHit != c.ref.BytesHit {
			c.res.failf("replay meter %+v differs from sim.Run (hits %d, bytes %d, bytes hit %d)",
				it.meter, c.ref.Hits, c.ref.BytesTotal, c.ref.BytesHit)
		}
	default:
		if d := math.Abs(it.meter.RequestHitRate() - c.ref.hitRate()); d > c.in.spec.HitRateTol {
			c.res.failf("replay hit rate %.5f is %.5f from the sequential %.5f, tolerance %.3f",
				it.meter.RequestHitRate(), d, c.ref.hitRate(), c.in.spec.HitRateTol)
		}
	}
}

// checkGolden compares the reference with the pinned outcome, if any. The
// counts must match exactly; the two latency quantiles may differ in the last
// bits, where a CPU with fused multiply-add rounds differently.
func (c *checker) checkGolden(want *outcome) {
	if want == nil || !c.hasRef {
		return
	}
	got := c.ref
	if closeTo(got.LatencyP50, want.LatencyP50) && closeTo(got.LatencyP99, want.LatencyP99) {
		got.LatencyP50, got.LatencyP99 = want.LatencyP50, want.LatencyP99
	}
	if got != *want {
		c.res.failf("outcome %+v differs from golden %+v", c.ref, *want)
	}
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

// runE2E is the end-to-end run: set up, one discarded warm-up, then timed
// iterations in a closed loop until the measured time reaches seconds.
// Tracing is off. golden, when non-nil, pins the expected outcome.
func runE2E(s spec, seed int64, seconds float64, golden *outcome, w io.Writer) *result {
	res := &result{spec: s, metrics: newMetricSet(endToEnd), samples: map[string][]float64{}}
	in, err := measureSetup(s, seed, math.Min(setupBudgetSec, seconds/4), res)
	if err != nil {
		res.attempted = int64(s.Requests)
		res.failf("set-up: %v", err)
		return res
	}
	chk, err := newChecker(in, res)
	if err != nil {
		res.attempted = int64(s.Requests)
		res.failf("%v", err)
		return res
	}

	var walls, hitRates, uplinks []float64
	for i := 0; ; i++ {
		// Collect between iterations, untimed, so no iteration pays for the
		// garbage of the one before.
		runtime.GC()
		it, err := in.iterate(nil)
		if err != nil {
			res.attempted += int64(in.requests())
			res.failf("iteration %d: %v", i, err)
			break
		}
		chk.check(it)
		if i == 0 {
			continue // warm-up: checked, not timed
		}
		walls = append(walls, it.wall)
		hitRates = append(hitRates, it.meter.RequestHitRate())
		uplinks = append(uplinks, float64(it.meter.BytesMissed)/float64(it.meter.BytesTotal))
		if len(walls) >= minIterations && sum(walls) >= seconds {
			break
		}
	}
	chk.checkGolden(golden)
	res.outcome = chk.ref

	if len(walls) > 0 {
		for _, wall := range walls {
			res.samples["req_per_s"] = append(res.samples["req_per_s"], float64(in.requests())/wall)
		}
		// The fastest iteration, not the median one: on a shared host other
		// tenants only ever add time to an iteration, so the fastest says most
		// about the program and least about the neighbours. Over ten runs on
		// the 2-CPU VM the bounds were set on it spread up to three times
		// narrower than the median iteration, never wider (README,
		// "Repeatability").
		res.metrics.set("req_per_s", float64(in.requests())/quantile(walls, 0))
		res.metrics.set("request_hit_rate", median(hitRates))
		res.metrics.set("uplink_fraction", median(uplinks))
		res.metrics.set("sim_latency_p50_ms", chk.ref.LatencyP50)
		res.metrics.set("sim_latency_p99_ms", chk.ref.LatencyP99)
		fmt.Fprintf(w, "iterations: 1 warm-up (discarded) + %d timed over %.2f s; sim latency over %d samples\n",
			len(walls), sum(walls), chk.ref.LatencyN)
	}
	return res
}

// measureSetup sets the workload up several times and keeps the last inputs. Set-up is everything before the first request can be served:
// generate and validate the trace, build constellation, grid and hash, and
// for a replay start every server.
func measureSetup(s spec, seed int64, budget float64, res *result) (*inputs, error) {
	var in *inputs
	spent := 0.0
	for i := 0; i < minSetups || (i < maxSetups && spent < budget); i++ {
		runtime.GC()
		start := time.Now()
		var err error
		in, err = s.setup(seed, nil)
		if err != nil {
			return nil, err
		}
		var cl *replayer.Cluster
		if s.Program != progSim {
			if cl, err = in.startCluster(nil); err != nil {
				return nil, err
			}
		}
		took := time.Since(start).Seconds()
		spent += took
		res.samples["setup_s"] = append(res.samples["setup_s"], took)
		if cl != nil {
			if err := closeCluster(cl, nil); err != nil {
				return nil, err
			}
		}
	}
	res.metrics.set("setup_s", median(res.samples["setup_s"]))
	return in, nil
}
