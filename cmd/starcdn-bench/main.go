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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "starcdn-bench:", err)
		os.Exit(1)
	}
}

// run is the command. It runs from the module root: the specs' package
// paths and the baseline files are relative to it.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("starcdn-bench", flag.ContinueOnError)
	var (
		check  = fs.Bool("check", false, "compare fresh runs against committed baselines")
		update = fs.Bool("update", false, "refresh BENCH_*.json baselines from a full run")
		smoke  = fs.Bool("smoke", false, "with -check: single cheap run gating the allocs/op budgets only (CI gate)")
		asJSON = fs.Bool("json", false, "emit the verdict array as JSON on stdout")
		filter = fs.String("bench", "", "only run benchmarks whose name contains this substring")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check == *update {
		fs.Usage()
		return errors.New("exactly one of -check or -update is required")
	}
	if *smoke && *update {
		return errors.New("-smoke applies to -check only")
	}

	files := make(map[string]*baselineFile)
	for _, spec := range benchSpecs {
		if _, ok := files[spec.file]; ok {
			continue
		}
		f, err := loadBaseline(spec.file)
		if err != nil {
			return err
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
			return err
		}
		f := files[spec.file]
		if *update {
			if err := applyUpdate(f, spec, runs); err != nil {
				return err
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
				return err
			}
			fmt.Fprintf(os.Stderr, "starcdn-bench: refreshed %s\n", path)
		}
		return nil
	}

	printTable(all)
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			return err
		}
	}
	if anyFailure(all) {
		return errors.New("a verdict failed")
	}
	return nil
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
