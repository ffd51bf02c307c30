// Command starcdn-sim regenerates the paper's tables and figures.
//
// Usage:
//
//	starcdn-sim -list
//	starcdn-sim -experiment fig7-l4
//	starcdn-sim -experiment all -scale medium
//	starcdn-sim -experiment fig9-latency -metrics-addr 127.0.0.1:9090 \
//	    -trace-out spans.jsonl -trace-sample 0.1
//
// Each experiment prints its measured series next to the values the paper
// reports so the reproduction can be checked at a glance. With -metrics-addr
// the in-process simulator exposes live starcdn_sim_* series (plus pprof)
// while the experiments run; -trace-out samples request-path spans into
// JSONL for starcdn-trace. Neither changes any reported number.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"starcdn/internal/experiments"
	"starcdn/internal/obs"
	"starcdn/internal/sim"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		experiment = flag.String("experiment", "all", "experiment name, or 'all'")
		scaleName  = flag.String("scale", "small", "experiment scale: small or medium")
		requests   = flag.Int("requests", 0, "override trace length (requests)")
		objects    = flag.Int("objects", 0, "override catalogue size (objects)")
		seed       = flag.Int64("seed", 0, "override random seed")

		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz, and /debug/pprof on this address while experiments run (empty disables)")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the experiments finish")
		traceOut      = flag.String("trace-out", "", "write request-path spans as JSONL to this file (consumed by starcdn-trace)")
		traceSample   = flag.Float64("trace-sample", 1, "fraction of requests to trace (deterministic per-request hash)")
		recordEpoch   = flag.Float64("record-epoch", 0, fmt.Sprintf("flight-recorder epoch in simulated seconds (0 disables; requires -metrics-addr); enables /timeseries.json, which holds the last %d epochs", obs.DefaultRecorderCapacity))
		phasesOn      = flag.Bool("phases", false, "attribute hot-path time to pipeline stages (starcdn_phase_* histograms with -metrics-addr, end-of-run breakdown always); never changes results")
	)
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.Small()
	case "medium":
		scale = experiments.Medium()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (small or medium)\n", *scaleName)
		os.Exit(2)
	}
	if *requests > 0 {
		scale.Requests = *requests
	}
	if *objects > 0 {
		scale.Objects = *objects
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	env := experiments.NewEnv(scale)

	// Observability is strictly opt-in: a nil registry/tracer keeps the
	// simulator's hot path free of instrument lookups.
	if *recordEpoch > 0 && *metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "-record-epoch requires -metrics-addr")
		os.Exit(2)
	}
	if *metricsAddr != "" {
		env.Obs = obs.NewRegistry()
		var runtimeBridge *obs.RuntimeBridge
		if *recordEpoch > 0 {
			// The recorder ticks on simulated time: sim.Run advances it per
			// request, so epochs line up with the trace clock, not wall time.
			env.Recorder = obs.NewRecorder(env.Obs, obs.RecorderOptions{EpochSec: *recordEpoch})
		}
		// The runtime bridge rides the recorder's epochs when there is one;
		// otherwise /healthz samples it on demand.
		runtimeBridge = obs.NewRuntimeBridge(env.Obs)
		runtimeBridge.BindRecorder(env.Recorder)
		srv, err := obs.ServeWith(*metricsAddr, obs.ServeOptions{
			Registry: env.Obs,
			Health: func() obs.Health {
				// The in-process simulator has no servers to die; /healthz is
				// a liveness probe for the experiment run itself.
				return obs.Health{OK: true, Note: "in-process simulator"}
			},
			Recorder: env.Recorder,
			Runtime:  runtimeBridge,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("metrics: listening on %s\n", srv.Addr())
	}
	if *phasesOn {
		// With a registry the per-epoch stage costs also land in
		// starcdn_phase_* histograms (and, via the recorder, in
		// /timeseries.json); without one only the breakdown accumulates.
		env.Phases = obs.NewSimPhases(env.Obs)
		env.Phases.BindRecorder(env.Recorder)
	}
	var traceFile *os.File
	if *traceOut != "" {
		var err error
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		env.Tracer = obs.NewTracer(traceFile, *traceSample, sim.TraceSeed)
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		out, err := experiments.Run(env, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		// Timing goes to stderr: stdout is the report, byte-deterministic per seed.
		fmt.Fprintf(os.Stderr, "[%s completed in %s]\n", name, time.Since(start).Round(time.Millisecond))
	}

	if env.Tracer != nil {
		if err := env.Tracer.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace spans: %d written to %s\n", env.Tracer.Emitted(), *traceOut)
	}
	if env.Recorder != nil {
		fmt.Printf("recorder: %d epochs at %gs (simulated time), the last %d held for /timeseries.json\n",
			env.Recorder.Epochs(), env.Recorder.EpochSec(), env.Recorder.Retained())
	}
	if env.Phases != nil {
		env.Phases.FlushEpoch()
		fmt.Print(env.Phases.String())
	}
	if *metricsAddr != "" && *metricsLinger > 0 {
		fmt.Printf("metrics: lingering %s for scrapes\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
}
