package main

import (
	"fmt"
	"time"
)

// applyUpdate folds a fresh full run into the baseline file in place:
// recorded runs, medians, allocs/op, date, and command are rewritten;
// descriptions, notes, budgets, host strings, and acceptance prose are
// preserved verbatim. A variant with no recorded runs keeps none: only its
// allocs/op is rewritten. New sub-bench variants present in the fresh output
// but absent from the baseline are appended in output order.
func applyUpdate(f *baselineFile, spec benchSpec, runs []benchRun) error {
	b := f.findBench(spec.name)
	if b == nil {
		return fmt.Errorf("%s: no %q entry in %s", spec.name, spec.name, spec.file)
	}
	groups := groupRuns(runs)

	for _, r := range b.Results {
		fresh := freshRuns(groups, b.Benchmark, r.Variant, len(b.Results))
		if len(fresh) == 0 {
			return fmt.Errorf("%s/%s: baseline variant produced no fresh runs", b.Benchmark, r.Variant)
		}
		updateResult(r, fresh, !r.allocsOnly())
	}

	// Append variants the baseline has not seen, in fresh-output order.
	seen := make(map[string]bool)
	var order []string
	for _, run := range runs {
		if hasPrefixVariant(run.Name, b.Benchmark) && !seen[run.Name] {
			seen[run.Name] = true
			order = append(order, run.Name)
		}
	}
	for _, name := range order {
		variant := name[len(b.Benchmark)+1:]
		if b.findResult(variant) != nil {
			continue
		}
		nr := &baselineResult{Variant: variant}
		updateResult(nr, groups[name], true)
		b.Results = append(b.Results, nr)
	}

	b.Date = time.Now().Format("2006-01-02")
	b.Command = spec.commandString()
	recomputeDerived(b)
	return nil
}

// updateResult rewrites one variant's measured figures from fresh runs; the
// runs and their median only when the variant records wall time.
func updateResult(r *baselineResult, fresh []benchRun, timed bool) {
	if a, ok := lastAllocs(fresh); ok {
		r.AllocsPerOp = &a
	}
	if !timed {
		return
	}
	ns := nsValues(fresh)
	r.NsPerOpRuns = make([]int64, len(ns))
	for i, v := range ns {
		r.NsPerOpRuns[i] = int64(v)
	}
	r.NsPerOpMedian = int64(median(ns))
}

// recomputeDerived refreshes BenchmarkReplayFrame's overhead_vs_hit_pct from
// the new medians: "get/hit" is the reference and carries none.
func recomputeDerived(b *baselineBench) {
	if b.Benchmark != "BenchmarkReplayFrame" {
		return
	}
	hit := b.findResult("get/hit")
	for _, r := range b.Results {
		r.OverheadHit = nil
		if hit != nil && r != hit && hit.NsPerOpMedian > 0 {
			p := round1(float64(r.NsPerOpMedian-hit.NsPerOpMedian) / float64(hit.NsPerOpMedian) * 100)
			r.OverheadHit = &p
		}
	}
}
