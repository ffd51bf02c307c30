// Command starcdn-bench is the repo's allocation gate and per-operation
// benchmark harness. It runs the recorded micro-benchmarks (internal/obs,
// internal/sched, internal/replayer) and one whole seeded sim.Run
// (bench_test.go's BenchmarkSimHotPath), parses the `go test -bench` output,
// and compares fresh runs against the committed BENCH_core.json /
// BENCH_obs.json baselines with a Mann–Whitney U test at the 8-run medians.
// A variant with no recorded runs, like the whole run, is gated on its
// allocs/op alone; whole-run wall time is benchmark/'s to judge. Verdicts are
// machine-readable: improved, regressed, indistinguishable (each with p-value
// and median-delta effect size), alloc-regressed (hard allocs/op budget),
// missing, or allocs-ok.
//
// Modes:
//
//	starcdn-bench -check          full statistical run (~8 runs per bench)
//	starcdn-bench -check -smoke   CI gate: 1 cheap run, alloc budgets hard,
//	                              wall time reported but not judged
//	starcdn-bench -update         refresh baselines in place from a full run
//
// -bench <substr> filters which benchmarks run; -json emits the verdict
// array on stdout. Exit status 1 on any failing verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		check  = flag.Bool("check", false, "compare fresh runs against committed baselines")
		update = flag.Bool("update", false, "refresh BENCH_*.json baselines from a full run")
		smoke  = flag.Bool("smoke", false, "with -check: single cheap run gating the allocs/op budgets only (CI gate)")
		asJSON = flag.Bool("json", false, "emit the verdict array as JSON on stdout")
		filter = flag.String("bench", "", "only run benchmarks whose name contains this substring")
	)
	flag.Parse()
	if *check == *update {
		fmt.Fprintln(os.Stderr, "starcdn-bench: exactly one of -check or -update is required")
		flag.Usage()
		os.Exit(2)
	}
	if *smoke && *update {
		fmt.Fprintln(os.Stderr, "starcdn-bench: -smoke applies to -check only")
		os.Exit(2)
	}

	files := make(map[string]*baselineFile)
	for _, spec := range benchSpecs {
		if _, ok := files[spec.file]; ok {
			continue
		}
		f, err := loadBaseline(spec.file)
		if err != nil {
			fatal(err)
		}
		files[spec.file] = f
	}

	var all []Verdict
	updated := make(map[string]bool)
	for _, spec := range benchSpecs {
		if *filter != "" && !strings.Contains(spec.name, *filter) {
			continue
		}
		if *smoke && spec.smokePattern == "" {
			continue
		}
		runs, err := runSpec(spec, *smoke)
		if err != nil {
			fatal(err)
		}
		f := files[spec.file]
		if *update {
			if err := applyUpdate(f, spec, runs); err != nil {
				fatal(err)
			}
			updated[spec.file] = true
			continue
		}
		// Evaluate only this spec's benchmark entry so a -bench filter
		// doesn't flag the unexercised rest of the file as missing.
		sub := &baselineFile{}
		if b := f.findBench(spec.name); b != nil {
			sub.Benchmarks = append(sub.Benchmarks, b)
		}
		groups := groupRuns(runs)
		if *smoke {
			all = append(all, evalSmoke(sub, groups)...)
		} else {
			all = append(all, evalFull(sub, groups)...)
		}
	}

	if *update {
		for path := range updated {
			if err := saveBaseline(path, files[path]); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "starcdn-bench: refreshed %s\n", path)
		}
		return
	}

	printTable(all)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fatal(err)
		}
	}
	if anyFailure(all) {
		os.Exit(1)
	}
}

// printTable renders the human-readable verdict summary on stderr, keeping
// stdout clean for -json consumers.
func printTable(vs []Verdict) {
	for _, v := range vs {
		name := v.Benchmark
		if v.Variant != "" {
			name += "/" + v.Variant
		}
		line := fmt.Sprintf("%-60s %-17s", name, v.Verdict)
		if v.MedianNs > 0 && v.BaselineMedianNs > 0 {
			line += fmt.Sprintf(" %+6.1f%%", v.EffectPct)
			if v.P > 0 {
				line += fmt.Sprintf("  p=%.3f", v.P)
			}
		}
		if v.Detail != "" {
			line += "  (" + v.Detail + ")"
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "starcdn-bench:", err)
	os.Exit(1)
}
