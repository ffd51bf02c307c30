package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// benchSpec pins how one recorded benchmark is (re)run. The table is the
// single source of truth for packages, iteration counts, and run counts —
// the committed command strings in BENCH_*.json are rewritten from it on
// -update, never parsed.
type benchSpec struct {
	name      string // benchmark function name, also the baseline "benchmark" key
	pkg       string // package path passed to go test
	pattern   string // -bench regex for the full run
	benchtime string // -benchtime for the full statistical run
	count     int    // -count for the full run (8-run medians)
	benchmem  bool
	file      string // which baseline file records it

	// smokePattern/smokeBenchtime configure the CI smoke gate (-check
	// -smoke): a single cheap run that enforces the hard allocs/op
	// budgets. Empty means the benchmark is not part of the smoke gate.
	smokePattern   string
	smokeBenchtime string
}

const (
	coreFile = "BENCH_core.json"
	obsFile  = "BENCH_obs.json"
)

var benchSpecs = []benchSpec{
	// A whole seeded sim.Run, gated on its allocs/op only: one cold run in
	// both modes. Its wall time is benchmark/'s sim_sparse_video workload.
	{
		name: "BenchmarkSimHotPath", pkg: ".",
		pattern: "^BenchmarkSimHotPath$", benchtime: "1x", count: 1, benchmem: true,
		file:         coreFile,
		smokePattern: "^BenchmarkSimHotPath$", smokeBenchtime: "1x",
	},
	{
		name: "BenchmarkReplayFrame", pkg: "./internal/replayer/",
		pattern: "^BenchmarkReplayFrame$", benchtime: "20000x", count: 8, benchmem: true,
		file:         coreFile,
		smokePattern: "^BenchmarkReplayFrame$/^(get|fetch)$/^(hit|pipelined)$", smokeBenchtime: "2000x",
	},
	// The per-operation prices of the sketches; what they cost a whole run
	// is benchmark/'s sim_dense_obs workload.
	{
		name: "BenchmarkTopKObserve", pkg: "./internal/obs/",
		pattern: "^BenchmarkTopKObserve$", benchtime: "2000000x", count: 8, benchmem: true,
		file: obsFile,
	},
	{
		name: "BenchmarkSketchObserve", pkg: "./internal/obs/",
		pattern: "^BenchmarkSketchObserve$", benchtime: "2000000x", count: 8, benchmem: true,
		file: obsFile,
	},
	{
		// sim, sim/dark and sim/strided; the smoke gate holds all three to
		// the entry's 0 allocs/op.
		name: "BenchmarkPhaseMark", pkg: "./internal/obs/",
		pattern: "^BenchmarkPhaseMark$", benchtime: "2000000x", count: 8, benchmem: true,
		file:         obsFile,
		smokePattern: "^BenchmarkPhaseMark$", smokeBenchtime: "200000x",
	},
	{
		name: "BenchmarkRecorderSnapshot", pkg: "./internal/obs/",
		pattern: "^BenchmarkRecorderSnapshot$", benchtime: "2000x", count: 8, benchmem: true,
		file:         obsFile,
		smokePattern: "^BenchmarkRecorderSnapshot$", smokeBenchtime: "200x",
	},
	// One scheduler epoch, on a new and on a stored timeline row; the stored
	// one must not allocate.
	{
		name: "BenchmarkSchedRecompute", pkg: "./internal/sched/",
		pattern: "^BenchmarkSchedRecompute$", benchtime: "20000x", count: 8, benchmem: true,
		file:         coreFile,
		smokePattern: "^BenchmarkSchedRecompute$/^warm$", smokeBenchtime: "20000x",
	},
}

// command renders the go test invocation for a spec (smoke or full).
func (s benchSpec) command(smoke bool) []string {
	pattern, benchtime, count := s.pattern, s.benchtime, s.count
	if smoke {
		pattern, benchtime, count = s.smokePattern, s.smokeBenchtime, 1
	}
	args := []string{"test", "-run=^$", "-bench", pattern,
		"-benchtime=" + benchtime, fmt.Sprintf("-count=%d", count)}
	if s.benchmem {
		args = append(args, "-benchmem")
	}
	return append(args, s.pkg)
}

// commandString is the human-readable form recorded in the baseline JSON.
func (s benchSpec) commandString() string {
	return "go " + strings.Join(s.command(false), " ")
}

// runSpec executes the spec's go test invocation and parses its result
// lines. Benchmark output (experiment reports, PASS trailers) is discarded;
// on a non-zero exit the captured output is surfaced in the error.
func runSpec(s benchSpec, smoke bool) ([]benchRun, error) {
	args := s.command(smoke)
	fmt.Fprintf(os.Stderr, "starcdn-bench: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out.String())
	}
	return parseBenchOutput(&out)
}
