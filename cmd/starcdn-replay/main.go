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
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "starcdn-replay:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, replays the trace and writes the
// summary to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("starcdn-replay", flag.ContinueOnError)
	var (
		in         = fs.String("in", "", "input trace file (binary format, required)")
		cacheMB    = fs.Int64("cache-mb", 256, "per-satellite cache size in MB")
		buckets    = fs.Int("buckets", 4, "consistent hashing bucket count (perfect square)")
		seed       = fs.Int64("seed", 1, "scheduler seed")
		concurrent = fs.Bool("concurrent", false, "keep many requests in flight, pipelined to each server in request order; the result equals the sequential replay's")

		fault     = fs.Bool("fault", false, "fault-tolerant replay: deadlines, retries, §3.4 degrade-to-ground")
		ioTimeout = fs.Duration("io-timeout", 250*time.Millisecond, "read/write deadline of one exchange with a server (with -fault)")
		retries   = fs.Int("retries", 3, "max attempts per request frame (with -fault)")

		chaosFrac    = fs.Float64("chaos", 0, "kill this fraction of contacted satellites mid-replay (requires -fault)")
		chaosSeed    = fs.Int64("chaos-seed", 1, "seed for the chaos schedule")
		chaosRevive  = fs.Float64("chaos-revive-sec", 0, "revive transient kills after this many trace seconds")
		chaosTransFr = fs.Float64("chaos-transient", 0.5, "fraction of kills that are transient (§3.4 reboot)")

		injRefuse   = fs.Float64("inject-refuse", 0, "probability a dial is refused (requires -fault)")
		injReset    = fs.Float64("inject-reset", 0, "probability a read/write hits a connection reset")
		injStall    = fs.Float64("inject-stall", 0, "probability a read stalls past the deadline")
		injTruncate = fs.Float64("inject-truncate", 0, "probability a write truncates the frame")
		injSeed     = fs.Int64("inject-seed", 1, "seed for the fault injector")

		metricsAddr   = fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz, and /debug/pprof on this address (e.g. 127.0.0.1:9090; empty disables)")
		metricsLinger = fs.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the replay finishes (for scraping/profiling)")
		traceOut      = fs.String("trace-out", "", "write request-path spans as JSONL to this file (consumed by starcdn-trace)")
		traceSample   = fs.Float64("trace-sample", 1, "fraction of requests to trace (deterministic per-request hash)")
		tracePropa    = fs.Bool("trace-propagate", false, "propagate trace context over the wire: one context frame ahead of each sampled request's exchanges, so server spans join the client's traces")
		serverTrace   = fs.String("server-trace-out", "", "write server-side operation spans as JSONL to this file (requires -trace-propagate; assemble with starcdn-trace -assemble)")

		sketches = fs.Bool("sketches", false, "streaming sketch telemetry: top-K object/satellite/bucket popularity and a wall-latency quantile sketch with trace exemplars (full entries on /metrics.json with -metrics-addr)")

		phasesOn    = fs.Bool("phases", false, "attribute round-trip time to pipeline stages (starcdn_phase_* histograms with -metrics-addr, end-of-run breakdown always); never changes results")
		recordEpoch = fs.Duration("record-epoch", 0, "flight-recorder snapshot interval (wall clock; 0 disables; e.g. 1s)")
		sloHitRate  = fs.Float64("slo-hit-rate", 0, "SLO: request hit rate >= this fraction over -slo-window (0 disables; requires -record-epoch)")
		sloWindow   = fs.Duration("slo-window", time.Minute, "SLO evaluation window")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return errors.New("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	tr, err := trace.Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Trace locations must be resolvable to coordinates.
	cities := geo.ExtendedCities()
	users := make([]geo.Point, len(tr.Locations))
	for i, name := range tr.Locations {
		city, err := geo.CityByName(cities, name)
		if err != nil {
			return fmt.Errorf("trace location %q is not a known city", name)
		}
		users[i] = city.Point
	}

	c := orbit.MustNew(orbit.DefaultStarlinkShell())
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), *buckets)
	if err != nil {
		return err
	}

	opts := replayer.Options{Hashing: true, Relay: true, Seed: *seed}

	var injector *replayer.FaultInjector
	inject := *injRefuse > 0 || *injReset > 0 || *injStall > 0 || *injTruncate > 0
	if inject && !*fault {
		return errors.New("-inject-* requires -fault (injected faults need the fault policy)")
	}
	if *retries < 1 {
		return errors.New("-retries must be at least 1 (it counts attempts, the first included)")
	}
	if *ioTimeout <= 0 {
		return errors.New("-io-timeout must be positive (injected stalls last twice as long)")
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
			return errors.New("-chaos requires -fault (a failure schedule needs the fault policy)")
		}
		sats, err := replayer.ContactedSats(h, users, tr, opts)
		if err != nil {
			return err
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
		fmt.Fprintf(stdout, "chaos schedule:   %d kills over %d contacted satellites (%d events)\n",
			kills, len(sats), len(opts.Failures))
	}

	// Observability: a shared registry feeds server-, client-, and
	// replay-level series to one exposition; the tracer samples request
	// spans into JSONL for starcdn-trace.
	var reg *obs.Registry
	if *metricsAddr != "" || *sketches || *traceOut != "" || *recordEpoch > 0 {
		reg = obs.NewRegistry()
		opts.Obs = reg
	}
	opts.Sketches = *sketches
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			return err
		}
		opts.Tracer = obs.NewTracer(traceFile, *traceSample, sim.TraceSeed)
		opts.Propagate = *tracePropa
	} else if *tracePropa {
		return errors.New("-trace-propagate requires -trace-out")
	}

	// Server-side span stream: the satellite-server tier of the distributed
	// trace, written to its own JSONL file exactly as a separate server
	// process would, and stitched back by starcdn-trace -assemble.
	var serverTracer *obs.Tracer
	var serverTraceFile *os.File
	if *serverTrace != "" {
		if !*tracePropa {
			return errors.New("-server-trace-out requires -trace-propagate (servers only see sampled contexts over the wire)")
		}
		serverTraceFile, err = os.Create(*serverTrace)
		if err != nil {
			return err
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
		recorder = obs.NewRecorder(reg, obs.RecorderOptions{EpochSec: recordEpoch.Seconds()})
		opts.Recorder = recorder
		var slos []obs.SLO
		if *sloHitRate > 0 {
			slos = append(slos, obs.SLO{
				Name: "hit-rate", Good: "starcdn_replay_hits_total",
				Total: "starcdn_replay_served_total", MinRatio: *sloHitRate,
				WindowSec: sloWindow.Seconds(),
			})
		}
		sloEngine, err = obs.NewSLOEngine(recorder, reg, slos)
		if err != nil {
			return err
		}
	} else if *sloHitRate > 0 {
		return errors.New("-slo-hit-rate requires -record-epoch (objectives evaluate per recorder epoch)")
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
		return err
	}
	defer func() {
		if cerr := cluster.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("cluster close: %w", cerr)
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
			return err
		}
		defer func() {
			if cerr := srv.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("metrics close: %w", cerr)
			}
		}()
		// The resolved address (flag may say :0) goes to stdout so scripts
		// can scrape it.
		fmt.Fprintf(stdout, "metrics: listening on %s\n", srv.Addr())
	}

	start := time.Now()
	var meter cache.Meter
	if *concurrent {
		meter, err = replayer.ReplayConcurrent(h, cluster, users, tr, opts)
	} else {
		meter, err = replayer.Replay(h, cluster, users, tr, opts)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "requests:         %d (%.0f req/s through TCP)\n",
		meter.Requests, float64(meter.Requests)/elapsed.Seconds())
	fmt.Fprintf(stdout, "request hit rate: %.2f%%\n", 100*meter.RequestHitRate())
	fmt.Fprintf(stdout, "byte hit rate:    %.2f%%\n", 100*meter.ByteHitRate())
	fmt.Fprintf(stdout, "uplink traffic:   %.2f GB (%.1f%% of total)\n",
		float64(meter.BytesMissed)/(1<<30),
		100*(1-meter.ByteHitRate()))
	fmt.Fprintf(stdout, "satellite caches: %d spun up\n", cluster.Len())
	if injector != nil {
		st := injector.Stats()
		fmt.Fprintf(stdout, "injected faults:  %d refused, %d resets, %d stalls, %d truncations (%d dials)\n",
			st.Refused, st.Resets, st.Stalls, st.Truncations, st.Dials)
	}
	fmt.Fprintf(stdout, "wall time:        %s\n", elapsed.Round(time.Millisecond))
	if phases != nil {
		phases.FlushEpoch()
		fmt.Fprint(stdout, phases.String())
	}
	if opts.Tracer != nil {
		// Flush spans before any linger so killing the process mid-linger
		// cannot lose trace data.
		if err := opts.Tracer.Flush(); err != nil {
			return err
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace spans:      %d written to %s\n", opts.Tracer.Emitted(), *traceOut)
	}
	if serverTracer != nil {
		if err := serverTracer.Flush(); err != nil {
			return err
		}
		if err := serverTraceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "server spans:     %d written to %s\n", serverTracer.Emitted(), *serverTrace)
	}
	if recorder != nil {
		fmt.Fprintf(stdout, "flight recorder:  %d epochs @ %s, the last %d held for /timeseries.json\n",
			recorder.Epochs(), *recordEpoch, recorder.Retained())
		for _, s := range sloEngine.Snapshot() {
			state := "ok"
			if s.BurnRate > 1 {
				state = "burning"
			}
			fmt.Fprintf(stdout, "slo %-12s value=%.4g burn=%.3g budget=%.3g (%s)\n",
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
			fmt.Fprintf(stdout, "hot objects:      %s (of %d sketched)\n",
				strings.Join(parts, " "), objs.N())
		}
		if lat := reg.Sketch("starcdn_sketch_replay_wall_ms", 0); lat.Count() > 0 {
			fmt.Fprintf(stdout, "wire latency:     p50=%.3gms p99=%.3gms over %d served (sketch)\n",
				lat.Quantile(0.5), lat.Quantile(0.99), lat.Count())
		}
	}
	if *metricsAddr != "" && *metricsLinger > 0 {
		fmt.Fprintf(stdout, "metrics: lingering %s for scrapes\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
	return nil
}
