package main

import (
	"os"
	"path/filepath"
	"testing"
)

// fixtureBaseline builds an in-memory baseline with one multi-variant
// benchmark and one bare-name benchmark whose variant carries an allocs/op
// budget.
func fixtureBaseline() *baselineFile {
	budget := int64(76000)
	allocs := int64(74829)
	return &baselineFile{
		Benchmarks: []*baselineBench{
			{
				Benchmark:   "BenchmarkObsOverhead",
				Description: "fixture",
				Results: []*baselineResult{
					{Variant: "off",
						NsPerOpRuns:   []int64{2390, 2395, 2400, 2405, 2410, 2415, 2420, 2425},
						NsPerOpMedian: 2407},
					{Variant: "metrics",
						NsPerOpRuns:   []int64{2500, 2505, 2510, 2515, 2520, 2525, 2530, 2535},
						NsPerOpMedian: 2517},
				},
			},
			{
				Benchmark: "BenchmarkSimHotPath",
				Results: []*baselineResult{
					{Variant: "hashing+relay/LRU",
						NsPerOpRuns:   []int64{2600, 2610, 2620, 2630, 2640, 2650, 2660, 2670},
						NsPerOpMedian: 2635,
						RequestsPerOp: 150000,
						AllocsPerOp:   &allocs,
						AllocsBudget:  &budget},
				},
			},
		},
	}
}

// mkRuns fabricates count parsed runs spread symmetrically (±0.7%) around a
// base ns/op, so the fabricated median sits at the base.
func mkRuns(name string, base float64, count int, allocs int64, hasAllocs bool) []benchRun {
	out := make([]benchRun, count)
	for i := range out {
		off := (float64(i) - float64(count-1)/2) * 0.002
		out[i] = benchRun{Name: name,
			NsPerOp: base * (1 + off), AllocsPerOp: allocs, HasAllocs: hasAllocs}
	}
	return out
}

// TestEvalFullFlagsInjectedRegression is the harness's own acceptance check:
// a synthetic 1.3x slowdown on one variant must come back "regressed" at
// significance while an unchanged variant stays indistinguishable.
func TestEvalFullFlagsInjectedRegression(t *testing.T) {
	f := fixtureBaseline()
	groups := map[string][]benchRun{}
	for _, r := range mkRuns("BenchmarkObsOverhead/off", 2407, 8, 0, false) {
		groups[r.Name] = append(groups[r.Name], r)
	}
	for _, r := range mkRuns("BenchmarkObsOverhead/metrics", 2517*1.3, 8, 0, false) {
		groups[r.Name] = append(groups[r.Name], r)
	}
	vs := evalFull(&baselineFile{Benchmarks: f.Benchmarks[:1]}, groups)
	byVariant := map[string]Verdict{}
	for _, v := range vs {
		byVariant[v.Variant] = v
	}
	if got := byVariant["metrics"]; got.Verdict != verdictRegressed {
		t.Errorf("injected 1.3x regression: verdict %q (p=%v), want %q", got.Verdict, got.P, verdictRegressed)
	}
	if got := byVariant["metrics"]; got.EffectPct < 25 || got.EffectPct > 35 {
		t.Errorf("effect size %v%%, want ~30%%", got.EffectPct)
	}
	if got := byVariant["off"]; got.Verdict != verdictIndist {
		t.Errorf("unchanged variant: verdict %q (p=%v), want %q", got.Verdict, got.P, verdictIndist)
	}
	if !anyFailure(vs) {
		t.Error("verdict set with a regression must fail the gate")
	}
}

// TestEvalFullImprovement: a clear speedup comes back "improved" and passes.
func TestEvalFullImprovement(t *testing.T) {
	f := fixtureBaseline()
	groups := map[string][]benchRun{}
	for _, r := range mkRuns("BenchmarkObsOverhead/off", 2407*0.7, 8, 0, false) {
		groups[r.Name] = append(groups[r.Name], r)
	}
	for _, r := range mkRuns("BenchmarkObsOverhead/metrics", 2517, 8, 0, false) {
		groups[r.Name] = append(groups[r.Name], r)
	}
	vs := evalFull(&baselineFile{Benchmarks: f.Benchmarks[:1]}, groups)
	for _, v := range vs {
		if v.Variant == "off" && v.Verdict != verdictImproved {
			t.Errorf("0.7x runs: verdict %q, want %q", v.Verdict, verdictImproved)
		}
	}
	if anyFailure(vs) {
		t.Error("improvement must not fail the gate")
	}
}

// TestEvalFullFewNsDirection: on a few-ns variant the int64 medians
// truncate — recorded runs of 3 and 4 ns keep a median of 3, and fresh runs
// near 3.4 ns truncate to 3 — so the verdict must come from the float
// medians, and its direction must agree with the sign of EffectPct.
func TestEvalFullFewNsDirection(t *testing.T) {
	f := &baselineFile{Benchmarks: []*baselineBench{{
		Benchmark: "BenchmarkPhaseMark",
		Results: []*baselineResult{{Variant: "sim/dark",
			NsPerOpRuns:   []int64{3, 3, 3, 3, 3, 3, 3, 4},
			NsPerOpMedian: 3}},
	}}}
	groups := map[string][]benchRun{"BenchmarkPhaseMark/sim/dark": mkRuns("BenchmarkPhaseMark/sim/dark", 3.4, 8, 0, false)}
	vs := evalFull(f, groups)
	if len(vs) != 1 {
		t.Fatalf("%d verdicts, want 1: %+v", len(vs), vs)
	}
	if v := vs[0]; v.Verdict != verdictRegressed || v.EffectPct <= 0 {
		t.Errorf("fresh ~3.4 ns against runs of 3 and 4 ns: verdict %q at %+.1f%% (p=%v), want %q at a positive effect",
			v.Verdict, v.EffectPct, v.P, verdictRegressed)
	}
}

// TestEvalFullMissingVariant: a baseline variant absent from fresh output
// fails (a renamed benchmark must not silently drop out of the gate).
func TestEvalFullMissingVariant(t *testing.T) {
	f := fixtureBaseline()
	groups := map[string][]benchRun{}
	for _, r := range mkRuns("BenchmarkObsOverhead/off", 2407, 8, 0, false) {
		groups[r.Name] = append(groups[r.Name], r)
	}
	vs := evalFull(&baselineFile{Benchmarks: f.Benchmarks[:1]}, groups)
	found := false
	for _, v := range vs {
		if v.Variant == "metrics" && v.Verdict == verdictMissing {
			found = true
		}
	}
	if !found || !anyFailure(vs) {
		t.Errorf("missing variant not flagged: %+v", vs)
	}
}

// TestEvalAllocBudget: bare-name benchmark resolution plus the hard
// allocs/op ceiling, in both full and smoke modes.
func TestEvalAllocBudget(t *testing.T) {
	f := fixtureBaseline()
	over := map[string][]benchRun{
		"BenchmarkSimHotPath": mkRuns("BenchmarkSimHotPath", 2635, 8, 80000, true),
	}
	sub := &baselineFile{Benchmarks: f.Benchmarks[1:]}
	for name, eval := range map[string]func(*baselineFile, map[string][]benchRun) []Verdict{
		"full": evalFull, "smoke": evalSmoke,
	} {
		vs := eval(sub, over)
		if len(vs) != 1 || vs[0].Verdict != verdictAllocs {
			t.Errorf("%s: 80000 allocs vs 76000 budget: %+v", name, vs)
		}
	}
	within := map[string][]benchRun{
		"BenchmarkSimHotPath": mkRuns("BenchmarkSimHotPath", 2635, 8, 74829, true),
	}
	vs := evalFull(sub, within)
	if len(vs) != 1 || vs[0].fails() {
		t.Errorf("within budget: %+v", vs)
	}

	// A budget belongs to its variant: a sibling without one is not judged
	// by it, however many allocations it reports, and a budgeted sibling is.
	zero, eight := int64(0), int64(8)
	frame := &baselineFile{Benchmarks: []*baselineBench{{
		Benchmark: "BenchmarkReplayFrame",
		Results: []*baselineResult{
			{Variant: "get/hit", NsPerOpRuns: []int64{10000}, NsPerOpMedian: 10000,
				AllocsPerOp: &zero, AllocsBudget: &zero},
			{Variant: "get/traced", NsPerOpRuns: []int64{20000}, NsPerOpMedian: 20000,
				AllocsPerOp: &eight},
		},
	}}}
	runs := map[string][]benchRun{
		"BenchmarkReplayFrame/get/hit":    mkRuns("BenchmarkReplayFrame/get/hit", 10000, 8, 1, true),
		"BenchmarkReplayFrame/get/traced": mkRuns("BenchmarkReplayFrame/get/traced", 20000, 8, 8, true),
	}
	for name, eval := range map[string]func(*baselineFile, map[string][]benchRun) []Verdict{
		"full": evalFull, "smoke": evalSmoke,
	} {
		byVariant := map[string]Verdict{}
		for _, v := range eval(frame, runs) {
			byVariant[v.Variant] = v
		}
		if got := byVariant["get/traced"]; got.Verdict == verdictAllocs || got.fails() {
			t.Errorf("%s: unbudgeted variant judged by its sibling's budget: %+v", name, got)
		}
		if got := byVariant["get/hit"]; got.Verdict != verdictAllocs {
			t.Errorf("%s: 1 alloc/op over its own 0 budget not flagged: %+v", name, got)
		}
	}
}

// TestEvalSmokeWallBound: smoke mode has no wall bound — a single slow run
// within its allocs/op budget is smoke-ok, however slow.
func TestEvalSmokeWallBound(t *testing.T) {
	f := fixtureBaseline()
	sub := &baselineFile{Benchmarks: f.Benchmarks[1:]}
	slow := map[string][]benchRun{
		"BenchmarkSimHotPath": mkRuns("BenchmarkSimHotPath", 2635*2, 1, 74829, true),
	}
	if vs := evalSmoke(sub, slow); len(vs) != 1 || vs[0].Verdict != verdictSmokeOK {
		t.Errorf("2x smoke run within its alloc budget: %+v", vs)
	}
	// Variants with no fresh runs are skipped, not failed.
	if vs := evalSmoke(sub, map[string][]benchRun{}); len(vs) != 1 || vs[0].Verdict != verdictSkipped || vs[0].fails() {
		t.Errorf("absent smoke runs: %+v", vs)
	}
}

// TestUpdateRoundTrip: -update rewrites runs/medians/derived figures in a
// temp file while preserving prose fields, budgets, and host strings, and
// appends newly appearing sub-bench variants.
func TestUpdateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fixture.json")
	f := fixtureBaseline()
	f.Benchmarks[0].Host = "fixture-host"
	note := "cold-start amortization"
	f.Benchmarks[1].AllocsBudgetNote = note
	if err := saveBaseline(path, f); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	var runs []benchRun
	runs = append(runs, mkRuns("BenchmarkObsOverhead/off", 3000, 8, 0, false)...)
	runs = append(runs, mkRuns("BenchmarkObsOverhead/metrics", 3300, 8, 0, false)...)
	runs = append(runs, mkRuns("BenchmarkObsOverhead/metrics+phases+runtime", 3350, 8, 0, false)...)
	spec := benchSpecs[2] // BenchmarkObsOverhead
	if err := applyUpdate(loaded, spec, runs); err != nil {
		t.Fatal(err)
	}
	simRuns := mkRuns("BenchmarkSimHotPath", 2700, 8, 74500, true)
	if err := applyUpdate(loaded, benchSpecs[0], simRuns); err != nil {
		t.Fatal(err)
	}
	if err := saveBaseline(path, loaded); err != nil {
		t.Fatal(err)
	}
	got, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	obs := got.findBench("BenchmarkObsOverhead")
	if obs == nil || obs.Host != "fixture-host" || obs.Description != "fixture" {
		t.Fatalf("prose fields not preserved: %+v", obs)
	}
	if obs.Command != benchSpecs[2].commandString() {
		t.Errorf("command not rewritten: %q", obs.Command)
	}
	off := obs.findResult("off")
	if off == nil || len(off.NsPerOpRuns) != 8 || off.NsPerOpMedian < 3000 {
		t.Fatalf("off runs not rewritten: %+v", off)
	}
	met := obs.findResult("metrics")
	if met == nil || met.OverheadOff == nil || *met.OverheadOff < 5 || *met.OverheadOff > 15 {
		t.Errorf("metrics overhead_vs_off not recomputed: %+v", met)
	}
	pr := obs.findResult("metrics+phases+runtime")
	if pr == nil {
		t.Fatal("new variant not appended")
	}
	if pr.OverheadMet == nil || *pr.OverheadMet < 0.5 || *pr.OverheadMet > 3 {
		t.Errorf("phases+runtime overhead_vs_metrics not derived: %+v", pr)
	}

	sim := got.findBench("BenchmarkSimHotPath")
	r := sim.Results[0]
	if sim.AllocsBudgetNote != note || r.AllocsBudget == nil || *r.AllocsBudget != 76000 {
		t.Errorf("budget fields not preserved: %+v, %+v", sim, r)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 74500 {
		t.Errorf("allocs/op not rewritten: %+v", r)
	}
	if r.RequestsPerSec == 0 || r.RequestsPerOp != 150000 {
		t.Errorf("throughput not recomputed: %+v", r)
	}

	// The rewritten file stays loadable under DisallowUnknownFields and ends
	// with a newline (committed-file hygiene).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Error("saved baseline missing trailing newline")
	}
}

// TestLoadCommittedBaselines: the real committed files parse under the strict
// decoder and every spec has its entry.
func TestLoadCommittedBaselines(t *testing.T) {
	root := "../.."
	for _, spec := range benchSpecs {
		f, err := loadBaseline(filepath.Join(root, spec.file))
		if err != nil {
			t.Fatalf("%s: %v", spec.file, err)
		}
		b := f.findBench(spec.name)
		if b == nil {
			t.Fatalf("%s: no %s entry", spec.file, spec.name)
		}
		for _, r := range b.Results {
			if len(r.NsPerOpRuns) == 0 || r.NsPerOpMedian == 0 {
				t.Errorf("%s/%s: empty runs in committed baseline", spec.name, r.Variant)
			}
		}
	}
}
