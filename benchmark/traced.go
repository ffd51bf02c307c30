package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"starcdn/internal/obs"
	"starcdn/internal/replayer"
	"starcdn/internal/sim"
)

const (
	// maxPairs caps the interleaved on/off pairs a traced run makes of one
	// kind, so a short trace does not spend its whole budget repeating itself.
	maxPairs = 5
	// obsWindowSec is how much of the trace the observability on/off pairs
	// cover. The flight recorder's cost is per simulated epoch, and on the
	// sparse trace's 720 epochs one run with the stack on takes ~25 s.
	obsWindowSec = 600
)

// pairs calls once(n) for n = 0, 1, ... until the budget (seconds) is used or
// maxPairs are done, and at least twice.
func pairs(budget float64, once func(n int) error) error {
	start := time.Now()
	for n := 0; n < 2 || (n < maxPairs && time.Since(start).Seconds() < budget); n++ {
		if err := once(n); err != nil {
			return err
		}
	}
	return nil
}

// runTraced is the traced run: the same benchmark code as runE2E with spans
// recorded around every call into a layer, then the layer drivers. It yields
// the per-layer metrics; the end-to-end metrics come from runE2E alone, where
// tracing is off.
func runTraced(s spec, seed int64, seconds float64, w io.Writer) (*result, *tracer) {
	res := &result{spec: s, metrics: newMetricSet(perLayer), samples: map[string][]float64{}}
	t := newTracer()
	if err := traced(s, seed, seconds, res, t, w); err != nil {
		if res.attempted == 0 {
			res.attempted = int64(s.Requests)
		}
		res.failf("%v", err)
	}
	return res, t
}

func traced(s spec, seed int64, seconds float64, res *result, t *tracer, w io.Writer) error {
	m := res.metrics

	id := t.begin("setup")
	in, err := s.setup(seed, t)
	t.end(id)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	n := float64(in.requests())
	gen := sum(t.seconds("workload.Generate"))
	m.set("workload.generate_s", gen)
	m.set("workload.gen_req_per_s", n/gen)
	m.set("trace.validate_s", sum(t.seconds("trace.Validate")))

	chk, err := newChecker(in, res)
	if err != nil {
		return err
	}

	// The program itself, untraced and traced in turn.
	var off, on []iteration
	iter := 0
	err = pairs(seconds/2, func(n int) error {
		// Alternate which side goes first, so neither always runs on the
		// other's leftovers.
		order := []*tracer{nil, t}
		if n%2 == 1 {
			order = []*tracer{t, nil}
		}
		for _, tt := range order {
			runtime.GC()
			iter++
			tt.setIter(iter)
			id := tt.begin("iteration")
			it, err := in.iterate(tt)
			tt.end(id)
			if err != nil {
				return fmt.Errorf("iteration %d: %w", iter, err)
			}
			chk.check(it)
			if tt == nil {
				off = append(off, it)
			} else {
				on = append(on, it)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.setIter(0)
	walls := func(its []iteration) []float64 {
		out := make([]float64, len(its))
		for i, it := range its {
			out[i] = it.wall
		}
		return out
	}
	m.set("tracing.overhead_ratio", median(walls(on))/median(walls(off))-1)
	var mallocs, allocBytes, gcCycles, gcPauseMs []float64
	for _, it := range off {
		mallocs = append(mallocs, float64(it.mallocs)/n)
		allocBytes = append(allocBytes, float64(it.allocBytes)/n)
		gcCycles = append(gcCycles, float64(it.gcCycles))
		gcPauseMs = append(gcPauseMs, float64(it.gcPauseNs)/1e6)
	}
	m.set("proc.allocs_per_req", median(mallocs))
	m.set("proc.alloc_bytes_per_req", median(allocBytes))
	m.set("proc.gc_cycles", median(gcCycles))
	m.set("proc.gc_pause_total_ms", median(gcPauseMs))

	// sim.Run over the head of the trace with the observability stack off and
	// on in turn. It must not change an answer.
	oin := in.prefix(sort.Search(in.requests(), func(i int) bool { return in.tr.Requests[i].TimeSec >= obsWindowSec }))
	on64 := float64(oin.requests())
	var obsOff, obsOn []float64
	var obsRef outcome
	series := 0
	id = t.begin("companion.obs")
	err = pairs(seconds/2, func(n int) error {
		order := []bool{false, true}
		if n%2 == 1 {
			order = []bool{true, false}
		}
		for _, withObs := range order {
			runtime.GC()
			cfg := oin.simConfig(withObs)
			sm, c, err := oin.runSim(cfg, t)
			if err != nil {
				return fmt.Errorf("sim.Run (obs %v): %w", withObs, err)
			}
			if o := outcomeOf(sm); len(obsOff)+len(obsOn) == 0 {
				obsRef = o
			} else if o != obsRef {
				res.failf("sim.Run (obs %v) gave %+v, first gave %+v", withObs, o, obsRef)
			}
			if withObs {
				obsOn = append(obsOn, c.wall)
				series = len(cfg.Metrics.Snapshot())
			} else {
				obsOff = append(obsOff, c.wall)
			}
		}
		return nil
	})
	t.end(id)
	if err != nil {
		return err
	}
	m.set("obs.overhead_ratio", median(obsOn)/median(obsOff)-1)
	m.set("obs.ns_per_req", (median(obsOn)-median(obsOff))/on64*1e9)
	m.set("obs.series", float64(series))

	// sim.Run once more with the program's own phase profiler on.
	id = t.begin("companion.phases")
	cfg := in.simConfig(s.Obs)
	if cfg.Phases == nil {
		cfg.Phases = obs.NewSimPhases(nil)
	}
	_, pc, err := in.runSim(cfg, t)
	t.end(id)
	if err != nil {
		return fmt.Errorf("sim.Run (phases): %w", err)
	}
	for _, st := range cfg.Phases.Breakdown() {
		m.set("sim.phase."+st.Stage+"_share", st.Fraction)
	}
	// On a replay workload the program is not sim.Run, so the run above is
	// the whole that the sim layers are set against.
	simRun := pc.wall
	if s.Program == progSim {
		simRun = median(walls(on))
	}
	m.set("sim.run_s", simRun)
	m.set("sim.isl_byte_hops", float64(chk.ref.ISLByteHops))
	for i, name := range sourceNames {
		m.set("sim.by_source."+name, float64(chk.ref.BySource[i]))
	}

	// The replayer with its client counters and phase profiler on: over the
	// whole trace with the workload's own driver on a replay workload, over a
	// prefix with the sequential driver on a sim workload.
	rin := in
	if s.Program == progSim {
		rin = in.prefix(replayPrefix)
	}
	rn := float64(rin.requests())
	reg := obs.NewRegistry()
	phases := obs.NewReplayPhases(reg)
	id = t.begin("companion.replay")
	_, rc, err := rin.runReplay(replayer.Options{Obs: reg, Phases: phases}, t)
	t.end(id)
	if err != nil {
		return fmt.Errorf("instrumented replay: %w", err)
	}
	frames := float64(reg.Counter("starcdn_client_attempts_total").Value())
	m.set("replayer.frames_per_req", frames/rn)
	m.set("replayer.retries", float64(reg.Counter("starcdn_client_retries_total").Value()))
	for _, st := range phases.Breakdown() {
		m.set("replayer.phase."+st.Stage+"_s", st.Seconds)
	}
	var served int64
	for i, name := range sourceNames {
		c := reg.Counter("starcdn_replay_requests_total", obs.L("source", sim.Source(i).String())).Value()
		m.set("replayer.by_source."+name, float64(c))
		served += c
	}
	if served != int64(rin.requests()) {
		res.failf("replay by-source counts sum to %d, requests are %d", served, rin.requests())
	}
	replayS := rc.wall
	if s.Program != progSim {
		replayS = median(walls(on))
	}
	m.set("replayer.replay_s", replayS)

	// The layers, one at a time, on the workload's own inputs.
	runtime.GC()
	od := driveOrbit(in, t)
	m.set("orbit.visible_from_calls", float64(len(od.callSec)))
	m.set("orbit.visible_from_us_p50", quantile(od.callSec, 0.5)*1e6)
	m.set("orbit.visible_from_us_p99", quantile(od.callSec, 0.99)*1e6)
	m.set("orbit.busy_s", sum(od.callSec))
	m.set("orbit.sweep_useful_ratio", float64(od.visible)/float64(od.swept))

	runtime.GC()
	sd, err := driveSched(in, t)
	if err != nil {
		return fmt.Errorf("sched driver: %w", err)
	}
	m.set("sched.epochs", float64(len(sd.recomputeSec)))
	m.set("sched.recompute_us_p50", median(sd.recomputeSec)*1e6)
	m.set("sched.lookup_ns", (sd.busy-sum(sd.recomputeSec))/math.Max(n-float64(len(sd.recomputeSec)), 1)*1e9)
	m.set("sched.busy_s", sd.busy)
	m.set("sched.no_cover_ratio", float64(sd.noCover)/n)

	runtime.GC()
	cd := driveCore(in, sd, t)
	m.set("core.calls", float64(cd.calls))
	m.set("core.ns_per_req", cd.busy/n*1e9)
	m.set("core.busy_s", cd.busy)
	m.set("core.remote_owner_ratio", float64(cd.remote)/math.Max(float64(cd.calls), 1))
	m.set("topo.hops_ns", cd.topoNs)

	runtime.GC()
	kd, err := driveCache(in, cd, t)
	if err != nil {
		return fmt.Errorf("cache driver: %w", err)
	}
	ops := float64(kd.gets + kd.admits)
	m.set("cache.ops", ops)
	m.set("cache.ns_per_op", kd.busy/math.Max(ops, 1)*1e9)
	m.set("cache.busy_s", kd.busy)
	m.set("cache.get_share", float64(kd.gets)/math.Max(ops, 1))
	m.set("cache.hit_ratio", float64(kd.hits)/math.Max(float64(kd.gets), 1))
	m.set("cache.evictions_per_admit", float64(kd.evictions)/math.Max(float64(kd.admits), 1))

	runtime.GC()
	latBusy := driveLatency(in, cd, kd, t)
	m.set("sim.latency_model_ns_per_req", latBusy/n*1e9)
	m.set("sim.self_s", simRun-sd.busy-cd.busy-kd.busy)

	runtime.GC()
	rd, err := driveReplayer(in, t)
	if err != nil {
		return fmt.Errorf("replayer driver: %w", err)
	}
	m.set("replayer.cluster_start_s", rd.clusterStart)
	m.set("replayer.server_start_us_p50", median(t.seconds("replayer.Cluster.Addr"))*1e6)
	m.set("replayer.dial_us_p50", median(rd.dialSec)*1e6)
	m.set("replayer.rtt_get_us_p50", quantile(rd.getSec, 0.5)*1e6)
	m.set("replayer.rtt_get_us_p99", quantile(rd.getSec, 0.99)*1e6)
	m.set("replayer.rtt_contains_us_p50", median(rd.containsSec)*1e6)
	m.set("replayer.rtt_admit_us_p50", median(rd.admitSec)*1e6)
	m.set("replayer.close_s", rd.closeSec)

	// What the replay spent off the wire: its wall minus the frames at the
	// driver's round-trip time, minus sched and core on the replayed trace.
	rsd, rcd := sd, cd
	if rin != in {
		if rsd, err = driveSched(rin, nil); err != nil {
			return fmt.Errorf("sched driver: %w", err)
		}
		rcd = driveCore(rin, rsd, nil)
	}
	wire := frames * median(rd.getSec)
	m.set("replayer.self_s", replayS-wire-rsd.busy-rcd.busy)

	m.set("proc.peak_rss_mb", peakRSSMB())
	m.set("tracing.spans", float64(len(t.spans)))

	fmt.Fprintf(w, "traced run: %d program iterations traced (median %.4f s), %d untraced (median %.4f s)\n",
		len(on), median(walls(on)), len(off), median(walls(off)))
	fmt.Fprintf(w, "\nlayers of the sim pipeline, busy seconds over %d requests:\n", in.requests())
	layerTable(w, "sim.run_s", simRun, []layerRow{
		{"sched (orbit sweep inside: " + fmt.Sprintf("%.4f", sum(od.callSec)) + ")", sd.busy},
		{"core + topo", cd.busy},
		{"cache", kd.busy},
		{"sim latency model", latBusy},
	})
	outside := sd.busy / simRun
	inside := m.get("sim.phase.sched_share")
	verdict := "agree"
	if math.Abs(outside-inside) > 0.10 {
		verdict = "DISAGREE by more than 10 points"
	}
	fmt.Fprintf(w, "sched share: %.3f from outside (sched.busy_s / sim.run_s), %.3f by the program's phase profiler: %s\n",
		outside, inside, verdict)
	fmt.Fprintf(w, "\nlayers of the replay pipeline, busy seconds over %d requests:\n", rin.requests())
	layerTable(w, "replayer.replay_s", replayS, []layerRow{
		{fmt.Sprintf("wire (%.0f frames x rtt_get p50)", frames), wire},
		{"sched", rsd.busy},
		{"core + topo", rcd.busy},
	})
	return nil
}

type layerRow struct {
	name string
	busy float64
}

// layerTable prints the layers' busy seconds, their sum against the whole,
// and what the layers leave unexplained.
func layerTable(w io.Writer, wholeName string, whole float64, rows []layerRow) {
	total := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "  %-46s %10.4f s  %5.1f%%\n", r.name, r.busy, 100*r.busy/whole)
		total += r.busy
	}
	fmt.Fprintf(w, "  %-46s %10.4f s  %5.1f%%\n", "sum of layers", total, 100*total/whole)
	fmt.Fprintf(w, "  %-46s %10.4f s\n", wholeName, whole)
	fmt.Fprintf(w, "  %-46s %10.4f s  %5.1f%%\n", "unexplained residue", whole-total, 100*(whole-total)/whole)
}
