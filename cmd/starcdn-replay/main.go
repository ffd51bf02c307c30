// Command starcdn-replay drives a trace through the distributed TCP cache
// replayer: every satellite's cache runs behind a loopback TCP endpoint and
// ISL fetches are real network round trips (the paper's §5.1 multi-process
// replayer). It reads a binary trace produced by the spacegen tool.
//
// With -fault the replayer runs fault-tolerant (per-attempt deadlines, bounded
// retries with jittered backoff, §3.4 degrade-to-ground), which unlocks the
// chaos options: -chaos kills a fraction of the contacted satellites
// mid-replay on a seeded schedule, and the -inject-* flags layer
// deterministic wire-level faults (refused dials, resets, stalls, truncated
// frames) in front of every connection.
//
// Usage:
//
//	spacegen -synthesize-production -requests 100000 -out prod.sctr
//	starcdn-replay -in prod.sctr -cache-mb 256 -buckets 4
//	starcdn-replay -in prod.sctr -fault -chaos 0.05 -chaos-seed 7 -concurrent
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/replayer"
	"starcdn/internal/sim"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("starcdn-replay: ")
	var (
		in         = flag.String("in", "", "input trace file (binary format, required)")
		cacheMB    = flag.Int64("cache-mb", 256, "per-satellite cache size in MB")
		buckets    = flag.Int("buckets", 4, "consistent hashing bucket count (perfect square)")
		noRelay    = flag.Bool("no-relay", false, "disable relayed fetch")
		noHash     = flag.Bool("no-hashing", false, "disable consistent hashing")
		outage     = flag.Int("outage", 0, "deactivate this many satellites")
		seed       = flag.Int64("seed", 1, "scheduler/outage seed")
		concurrent = flag.Bool("concurrent", false, "keep many requests in flight, pipelined to each server in request order; the result equals the sequential replay's")

		fault     = flag.Bool("fault", false, "fault-tolerant replay: deadlines, retries, §3.4 degrade-to-ground")
		ioTimeout = flag.Duration("io-timeout", 250*time.Millisecond, "read/write deadline of one exchange with a server (with -fault)")
		retries   = flag.Int("retries", 3, "max attempts per request frame (with -fault)")

		chaosFrac    = flag.Float64("chaos", 0, "kill this fraction of contacted satellites mid-replay (requires -fault)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for the chaos schedule")
		chaosRevive  = flag.Float64("chaos-revive-sec", 0, "revive transient kills after this many trace seconds")
		chaosTransFr = flag.Float64("chaos-transient", 0.5, "fraction of kills that are transient (§3.4 reboot)")

		injRefuse   = flag.Float64("inject-refuse", 0, "probability a dial is refused (requires -fault)")
		injReset    = flag.Float64("inject-reset", 0, "probability a read/write hits a connection reset")
		injStall    = flag.Float64("inject-stall", 0, "probability a read stalls past the deadline")
		injTruncate = flag.Float64("inject-truncate", 0, "probability a write truncates the frame")
		injSeed     = flag.Int64("inject-seed", 1, "seed for the fault injector")

		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz, and /debug/pprof on this address (e.g. 127.0.0.1:9090; empty disables)")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the replay finishes (for scraping/profiling)")
		traceOut      = flag.String("trace-out", "", "write request-path spans as JSONL to this file (consumed by starcdn-trace)")
		traceSample   = flag.Float64("trace-sample", 1, "fraction of requests to trace (deterministic per-request hash)")
		tracePropa    = flag.Bool("trace-propagate", false, "propagate trace context over the wire: one context frame ahead of each sampled request's exchanges, so server spans join the client's traces")
		serverTrace   = flag.String("server-trace-out", "", "write server-side operation spans as JSONL to this file (requires -trace-propagate; assemble with starcdn-trace -assemble)")

		sketches = flag.Bool("sketches", false, "streaming sketch telemetry: top-K object/satellite/bucket popularity and a wall-latency quantile sketch with trace exemplars (full entries on /metrics.json with -metrics-addr)")

		phasesOn    = flag.Bool("phases", false, "attribute round-trip time to pipeline stages (starcdn_phase_* histograms with -metrics-addr, end-of-run breakdown always); never changes results")
		recordEpoch = flag.Duration("record-epoch", 0, "flight-recorder snapshot interval (wall clock; 0 disables; e.g. 1s)")
		sloP99Ms    = flag.Float64("slo-p99-ms", 0, "SLO: p99 client frame latency <= this many ms over -slo-window (0 disables; requires -record-epoch)")
		sloHitRate  = flag.Float64("slo-hit-rate", 0, "SLO: request hit rate >= this fraction over -slo-window (0 disables; requires -record-epoch)")
		sloWindow   = flag.Duration("slo-window", time.Minute, "SLO evaluation window")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}

	// Trace locations must be resolvable to coordinates.
	cities := geo.ExtendedCities()
	users := make([]geo.Point, len(tr.Locations))
	for i, name := range tr.Locations {
		city, err := geo.CityByName(cities, name)
		if err != nil {
			log.Fatalf("trace location %q is not a known city", name)
		}
		users[i] = city.Point
	}

	c := orbit.MustNew(orbit.DefaultStarlinkShell())
	if *outage > 0 {
		c.ApplyOutageMask(*outage, *seed)
	}
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), *buckets)
	if err != nil {
		log.Fatal(err)
	}

	opts := replayer.Options{
		Hashing: !*noHash,
		Relay:   !*noRelay,
		Seed:    *seed,
	}

	var injector *replayer.FaultInjector
	inject := *injRefuse > 0 || *injReset > 0 || *injStall > 0 || *injTruncate > 0
	if inject && !*fault {
		log.Fatal("-inject-* requires -fault (injected faults need the fault policy)")
	}
	if *retries < 1 {
		log.Fatal("-retries must be at least 1 (it counts attempts, the first included)")
	}
	if *ioTimeout <= 0 {
		log.Fatal("-io-timeout must be positive (injected stalls last twice as long)")
	}
	if *fault {
		pol := &replayer.FaultPolicy{
			IOTimeout: *ioTimeout,
			Retry:     replayer.RetryPolicy{MaxAttempts: *retries},
		}
		if inject {
			injector = replayer.NewFaultInjector(replayer.FaultConfig{
				Seed:         *injSeed,
				RefuseRate:   *injRefuse,
				ResetRate:    *injReset,
				StallRate:    *injStall,
				TruncateRate: *injTruncate,
				// Twice the deadline, so a stalled read always outlives it.
				StallFor: 2 * *ioTimeout,
			})
			pol.Injector = injector
		}
		opts.Fault = pol
	}

	if *chaosFrac > 0 {
		if !*fault {
			log.Fatal("-chaos requires -fault (a failure schedule needs the fault policy)")
		}
		sats, err := replayer.ContactedSats(h, users, tr, opts)
		if err != nil {
			log.Fatal(err)
		}
		duration := 0.0
		if n := len(tr.Requests); n > 0 {
			duration = tr.Requests[n-1].TimeSec
		}
		opts.Failures = sim.GenerateChaos(sats, sim.ChaosOptions{
			StartSec:          duration * 0.1,
			EndSec:            duration * 0.9,
			KillFraction:      *chaosFrac,
			TransientFraction: *chaosTransFr,
			ReviveAfterSec:    *chaosRevive,
			Seed:              *chaosSeed,
		})
		kills := 0
		for _, ev := range opts.Failures {
			if ev.Down {
				kills++
			}
		}
		fmt.Printf("chaos schedule:   %d kills over %d contacted satellites (%d events)\n",
			kills, len(sats), len(opts.Failures))
	}

	// Observability: a shared registry feeds server-, client-, and
	// replay-level series to one exposition; the tracer samples request
	// spans into JSONL for starcdn-trace.
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		opts.Obs = reg
	}
	if *sketches {
		if reg == nil {
			reg = obs.NewRegistry()
			opts.Obs = reg
		}
		opts.Sketches = true
	}
	var traceFile *os.File
	if *traceOut != "" {
		if reg == nil {
			reg = obs.NewRegistry()
			opts.Obs = reg
		}
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		opts.Tracer = obs.NewTracer(traceFile, *traceSample, sim.TraceSeed)
		opts.Propagate = *tracePropa
	} else if *tracePropa {
		log.Fatal("-trace-propagate requires -trace-out")
	}

	// Server-side span stream: the satellite-server tier of the distributed
	// trace, written to its own JSONL file exactly as a separate server
	// process would, and stitched back by starcdn-trace -assemble.
	var serverTracer *obs.Tracer
	var serverTraceFile *os.File
	if *serverTrace != "" {
		if !*tracePropa {
			log.Fatal("-server-trace-out requires -trace-propagate (servers only see sampled contexts over the wire)")
		}
		serverTraceFile, err = os.Create(*serverTrace)
		if err != nil {
			log.Fatal(err)
		}
		serverTracer = obs.NewTracer(serverTraceFile, 1, sim.TraceSeed)
	}

	// Flight recorder + SLO engine: the registry becomes a queryable time
	// series on /timeseries.json, with starcdn_slo_* burn rates feeding
	// /healthz degradation alongside cluster kill state. The error budget is
	// the SLO default: 1 % of epochs may breach.
	var recorder *obs.Recorder
	var sloEngine *obs.SLOEngine
	if *recordEpoch > 0 {
		if reg == nil {
			reg = obs.NewRegistry()
			opts.Obs = reg
		}
		recorder = obs.NewRecorder(reg, obs.RecorderOptions{EpochSec: recordEpoch.Seconds()})
		opts.Recorder = recorder
		var slos []obs.SLO
		if *sloP99Ms > 0 {
			slos = append(slos, obs.SLO{
				Name: "frame-p99", Series: "starcdn_client_frame_ms",
				Quantile: 0.99, MaxValue: *sloP99Ms,
				WindowSec: sloWindow.Seconds(),
			})
		}
		if *sloHitRate > 0 {
			slos = append(slos, obs.SLO{
				Name: "hit-rate", Good: "starcdn_replay_hits_total",
				Total: "starcdn_replay_served_total", MinRatio: *sloHitRate,
				WindowSec: sloWindow.Seconds(),
			})
		}
		sloEngine, err = obs.NewSLOEngine(recorder, reg, slos)
		if err != nil {
			log.Fatal(err)
		}
	} else if *sloP99Ms > 0 || *sloHitRate > 0 {
		log.Fatal("SLO flags require -record-epoch (objectives evaluate per recorder epoch)")
	}

	// Phase profiler: attributes round-trip wall time to the dial /
	// frame-write / frame-read / retry stages. Works without a registry
	// (breakdown only); with a recorder the per-epoch stage costs land in
	// the rings.
	var phases *obs.PhaseProfiler
	if *phasesOn {
		phases = obs.NewReplayPhases(reg)
		phases.BindRecorder(recorder)
		opts.Phases = phases
	}

	cluster, err := replayer.NewClusterOpts(cache.LRU, *cacheMB<<20,
		replayer.ServerOptions{Obs: reg, Tracer: serverTracer})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := cluster.Close(); err != nil {
			log.Printf("cluster close: %v", err)
		}
	}()

	if *metricsAddr != "" {
		runtimeBridge := obs.NewRuntimeBridge(reg)
		runtimeBridge.BindRecorder(recorder)
		srv, err := obs.ServeWith(*metricsAddr, obs.ServeOptions{
			Registry: reg,
			Health:   sloEngine.Health(cluster.Health),
			Recorder: recorder,
			Runtime:  runtimeBridge,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := srv.Close(); err != nil {
				log.Printf("metrics close: %v", err)
			}
		}()
		// The resolved address (flag may say :0) goes to stdout so scripts
		// can scrape it.
		fmt.Printf("metrics: listening on %s\n", srv.Addr())
	}

	start := time.Now()
	var meter cache.Meter
	if *concurrent {
		meter, err = replayer.ReplayConcurrent(h, cluster, users, tr, opts)
	} else {
		meter, err = replayer.Replay(h, cluster, users, tr, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("requests:         %d (%.0f req/s through TCP)\n",
		meter.Requests, float64(meter.Requests)/elapsed.Seconds())
	fmt.Printf("request hit rate: %.2f%%\n", 100*meter.RequestHitRate())
	fmt.Printf("byte hit rate:    %.2f%%\n", 100*meter.ByteHitRate())
	fmt.Printf("uplink traffic:   %.2f GB (%.1f%% of total)\n",
		float64(meter.BytesMissed)/(1<<30),
		100*(1-meter.ByteHitRate()))
	fmt.Printf("satellite caches: %d spun up\n", cluster.Len())
	if injector != nil {
		st := injector.Stats()
		fmt.Printf("injected faults:  %d refused, %d resets, %d stalls, %d truncations (%d dials)\n",
			st.Refused, st.Resets, st.Stalls, st.Truncations, st.Dials)
	}
	fmt.Printf("wall time:        %s\n", elapsed.Round(time.Millisecond))
	if phases != nil {
		phases.FlushEpoch()
		fmt.Print(phases.String())
	}
	if opts.Tracer != nil {
		// Flush spans before any linger so killing the process mid-linger
		// cannot lose trace data.
		if err := opts.Tracer.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace spans:      %d written to %s\n", opts.Tracer.Emitted(), *traceOut)
	}
	if serverTracer != nil {
		if err := serverTracer.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := serverTraceFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("server spans:     %d written to %s\n", serverTracer.Emitted(), *serverTrace)
	}
	if recorder != nil {
		fmt.Printf("flight recorder:  %d epochs @ %s, the last %d held for /timeseries.json\n",
			recorder.Epochs(), *recordEpoch, recorder.Retained())
		for _, s := range sloEngine.Snapshot() {
			state := "ok"
			if s.BurnRate > 1 {
				state = "burning"
			}
			fmt.Printf("slo %-12s value=%.4g burn=%.3g budget=%.3g (%s)\n",
				s.Name, s.Value, s.BurnRate, s.Budget, state)
		}
	}
	if opts.Sketches {
		// The hot set as the sketches saw it: the top-K summary over object
		// keys and the wall-latency quantile sketch (also on /metrics.json).
		objs := reg.TopK("starcdn_popularity_objects", 0)
		if top := objs.Top(); len(top) > 0 {
			if len(top) > 5 {
				top = top[:5]
			}
			parts := make([]string, len(top))
			for i, e := range top {
				parts[i] = fmt.Sprintf("%s×%d", e.Key, e.Count)
			}
			fmt.Printf("hot objects:      %s (of %d sketched)\n",
				strings.Join(parts, " "), objs.N())
		}
		if lat := reg.Sketch("starcdn_sketch_replay_wall_ms", 0); lat.Count() > 0 {
			fmt.Printf("wire latency:     p50=%.3gms p99=%.3gms over %d served (sketch)\n",
				lat.Quantile(0.5), lat.Quantile(0.99), lat.Count())
		}
	}
	if *metricsAddr != "" && *metricsLinger > 0 {
		fmt.Printf("metrics: lingering %s for scrapes\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
}
