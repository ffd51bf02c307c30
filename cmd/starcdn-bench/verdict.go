package main

import "fmt"

// Verdict is one machine-readable comparison of a fresh run against its
// committed baseline — the harness's output schema (DESIGN.md §11).
type Verdict struct {
	Benchmark        string  `json:"benchmark"`
	Variant          string  `json:"variant"`
	Verdict          string  `json:"verdict"`
	P                float64 `json:"p,omitempty"`
	BaselineMedianNs int64   `json:"baseline_median_ns,omitempty"`
	MedianNs         int64   `json:"median_ns,omitempty"`
	EffectPct        float64 `json:"effect_pct,omitempty"`
	AllocsPerOp      *int64  `json:"allocs_per_op,omitempty"`
	AllocsBudget     *int64  `json:"allocs_per_op_budget,omitempty"`
	Detail           string  `json:"detail,omitempty"`
}

// Verdict values. Only regressed/alloc-regressed/missing fail the gate:
// improved means faster at significance (refresh the baseline when it
// sticks), indistinguishable means the difference is inside the noise, and
// allocs-ok means within the allocs/op budget with the wall time reported
// but not judged (every smoke run, and every variant with no recorded runs).
const (
	verdictImproved  = "improved"
	verdictRegressed = "regressed"
	verdictIndist    = "indistinguishable"
	verdictAllocs    = "alloc-regressed"
	verdictAllocsOK  = "allocs-ok"
	verdictMissing   = "missing"
	verdictNew       = "new-variant"
	verdictSkipped   = "skipped"
)

// fails reports whether a verdict fails the CI gate.
func (v Verdict) fails() bool {
	switch v.Verdict {
	case verdictRegressed, verdictAllocs, verdictMissing:
		return true
	}
	return false
}

// freshRuns resolves the output runs for a baseline (benchmark, variant)
// pair. Sub-benchmarks report as "Benchmark/variant"; a benchmark with a
// single decorative variant ("hashing+relay/LRU") reports under its bare
// name.
func freshRuns(groups map[string][]benchRun, bench, variant string, nResults int) []benchRun {
	if rs := groups[bench+"/"+variant]; len(rs) > 0 {
		return rs
	}
	if nResults == 1 {
		return groups[bench]
	}
	return nil
}

// nsValues extracts the ns/op samples.
func nsValues(runs []benchRun) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.NsPerOp
	}
	return out
}

// lastAllocs returns the final reported allocs/op (benchmem runs repeat the
// figure per -count run; they are identical for seeded benchmarks).
func lastAllocs(runs []benchRun) (int64, bool) {
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].HasAllocs {
			return runs[i].AllocsPerOp, true
		}
	}
	return 0, false
}

// evalFull compares every recorded variant of a baseline file against fresh
// full-mode runs: Mann–Whitney on the run sets for the wall-clock verdict,
// plus the hard allocs/op budget of each variant that carries one. A variant
// with no recorded runs is judged on its allocs/op alone, as in smoke mode.
func evalFull(f *baselineFile, groups map[string][]benchRun) []Verdict {
	var out []Verdict
	for _, b := range f.Benchmarks {
		for _, r := range b.Results {
			runs := freshRuns(groups, b.Benchmark, r.Variant, len(b.Results))
			switch {
			case len(runs) == 0:
				out = append(out, Verdict{Benchmark: b.Benchmark, Variant: r.Variant,
					BaselineMedianNs: r.NsPerOpMedian, Verdict: verdictMissing,
					Detail: "variant produced no fresh runs (renamed or deleted benchmark?)"})
			case r.allocsOnly():
				out = append(out, untimedVerdict(b, r, runs))
			default:
				out = append(out, timedVerdict(b, r, runs))
			}
		}
		// Fresh sub-bench variants the baseline does not know yet: surfaced
		// so -update can be run to record them, but not a failure.
		for name := range groups {
			if !hasPrefixVariant(name, b.Benchmark) {
				continue
			}
			variant := name[len(b.Benchmark)+1:]
			if b.findResult(variant) == nil {
				out = append(out, Verdict{Benchmark: b.Benchmark, Variant: variant,
					Verdict: verdictNew, Detail: "not in baseline; run -update to record it"})
			}
		}
	}
	return out
}

// timedVerdict judges a variant's fresh runs against its recorded ones.
func timedVerdict(b *baselineBench, r *baselineResult, runs []benchRun) Verdict {
	v := Verdict{Benchmark: b.Benchmark, Variant: r.Variant, BaselineMedianNs: r.NsPerOpMedian}
	recorded, fresh := r.runsFloat(), nsValues(runs)
	// Direction and effect come from the float medians of both run sets:
	// the int64 medians truncate, so on a few-ns variant they could call a
	// slowdown "improved".
	base, now := median(recorded), median(fresh)
	v.MedianNs = int64(now)
	v.P = mannWhitneyP(recorded, fresh)
	v.EffectPct = round1(effectPct(base, now))
	switch {
	case v.P < alpha && now > base:
		v.Verdict = verdictRegressed
	case v.P < alpha:
		v.Verdict = verdictImproved
	default:
		v.Verdict = verdictIndist
	}
	judgeAllocs(&v, r, runs)
	return v
}

// untimedVerdict gates a variant on its allocs/op alone; the fresh wall time
// is reported beside the recorded median, if any, but never judged.
func untimedVerdict(b *baselineBench, r *baselineResult, runs []benchRun) Verdict {
	v := Verdict{Benchmark: b.Benchmark, Variant: r.Variant, BaselineMedianNs: r.NsPerOpMedian,
		Verdict: verdictAllocsOK}
	fresh := median(nsValues(runs))
	v.MedianNs = int64(fresh)
	v.EffectPct = round1(effectPct(float64(r.NsPerOpMedian), fresh))
	judgeAllocs(&v, r, runs)
	return v
}

// evalSmoke is the CI gate's cheap mode: one run per smoke benchmark,
// gating only what is deterministic — the hard allocs/op budgets (seeded,
// so exact at one run). The single run's wall time is reported, never
// judged: a one-sample wall bound fails at an unchanged commit on a noisy
// host, and the statistical comparison needs the full 8-run mode. Variants
// outside the smoke set are skipped, not failed.
func evalSmoke(f *baselineFile, groups map[string][]benchRun) []Verdict {
	var out []Verdict
	for _, b := range f.Benchmarks {
		for _, r := range b.Results {
			runs := freshRuns(groups, b.Benchmark, r.Variant, len(b.Results))
			if len(runs) == 0 {
				out = append(out, Verdict{Benchmark: b.Benchmark, Variant: r.Variant,
					BaselineMedianNs: r.NsPerOpMedian, Verdict: verdictSkipped})
				continue
			}
			out = append(out, untimedVerdict(b, r, runs))
		}
	}
	return out
}

// judgeAllocs enforces a variant's hard allocs/op ceiling, turning v into an
// alloc-regressed verdict when the fresh runs exceed it. Each budget sits on
// its own result entry, so a sibling's budget never judges a variant that
// has none.
func judgeAllocs(v *Verdict, r *baselineResult, runs []benchRun) {
	if r.AllocsBudget == nil {
		return
	}
	got, ok := lastAllocs(runs)
	switch {
	case !ok:
		v.Detail = "variant has an allocs/op budget but the fresh run carried none (-benchmem missing?)"
	case got > *r.AllocsBudget:
		v.Detail = fmt.Sprintf("%d allocs/op over the %d budget", got, *r.AllocsBudget)
	default:
		return
	}
	v.Verdict = verdictAllocs
	v.AllocsPerOp = &got
	v.AllocsBudget = r.AllocsBudget
}

// hasPrefixVariant reports whether name is a sub-benchmark of bench.
func hasPrefixVariant(name, bench string) bool {
	return len(name) > len(bench)+1 && name[:len(bench)] == bench && name[len(bench)] == '/'
}

// anyFailure reports whether a verdict set fails the gate.
func anyFailure(vs []Verdict) bool {
	for _, v := range vs {
		if v.fails() {
			return true
		}
	}
	return false
}
