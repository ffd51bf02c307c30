package main

import (
	"os"
	"path/filepath"
	"testing"
)

// fixtureBaseline builds an in-memory baseline with one multi-variant timed
// benchmark and one bare-name benchmark whose single variant has no recorded
// runs and is gated on its allocs/op budget alone.
func fixtureBaseline() *baselineFile {
	budget := int64(14190)
	allocs := int64(13978)
	return &baselineFile{
		Benchmarks: []*baselineBench{
			{
				Benchmark:   "BenchmarkReplayFrame",
				Description: "fixture",
				Results: []*baselineResult{
					{Variant: "get/hit",
						NsPerOpRuns:   []float64{2390, 2395, 2400, 2405, 2410, 2415, 2420, 2425},
						NsPerOpMedian: 2407},
					{Variant: "get/propagate",
						NsPerOpRuns:   []float64{2500, 2505, 2510, 2515, 2520, 2525, 2530, 2535},
						NsPerOpMedian: 2517},
				},
			},
			{
				Benchmark: "BenchmarkSimHotPath",
				Results: []*baselineResult{
					{Variant: "hashing+relay/LRU",
						AllocsPerOp:  &allocs,
						AllocsBudget: &budget},
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
	for _, r := range mkRuns("BenchmarkReplayFrame/get/hit", 2407, 8, 0, false) {
		groups[r.Name] = append(groups[r.Name], r)
	}
	for _, r := range mkRuns("BenchmarkReplayFrame/get/propagate", 2517*1.3, 8, 0, false) {
		groups[r.Name] = append(groups[r.Name], r)
	}
	vs := evalFull(&baselineFile{Benchmarks: f.Benchmarks[:1]}, groups)
	byVariant := map[string]Verdict{}
	for _, v := range vs {
		byVariant[v.Variant] = v
	}
	if got := byVariant["get/propagate"]; got.Verdict != verdictRegressed {
		t.Errorf("injected 1.3x regression: verdict %q (p=%v), want %q", got.Verdict, got.P, verdictRegressed)
	}
	if got := byVariant["get/propagate"]; got.EffectPct < 25 || got.EffectPct > 35 {
		t.Errorf("effect size %v%%, want ~30%%", got.EffectPct)
	}
	if got := byVariant["get/hit"]; got.Verdict != verdictIndist {
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
	for _, r := range mkRuns("BenchmarkReplayFrame/get/hit", 2407*0.7, 8, 0, false) {
		groups[r.Name] = append(groups[r.Name], r)
	}
	for _, r := range mkRuns("BenchmarkReplayFrame/get/propagate", 2517, 8, 0, false) {
		groups[r.Name] = append(groups[r.Name], r)
	}
	vs := evalFull(&baselineFile{Benchmarks: f.Benchmarks[:1]}, groups)
	for _, v := range vs {
		if v.Variant == "get/hit" && v.Verdict != verdictImproved {
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
			NsPerOpRuns:   []float64{3, 3, 3, 3, 3, 3, 3, 4},
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

// TestUpdateFewNsRecordsAsMeasured: -update keeps each run as measured, so
// a few-ns variant it has just recorded, written out and read back, reads
// indistinguishable against fresh runs identical to the recorded ones. Runs
// truncated to whole ns, 3.4 ns kept as 3, read regressed against the same
// runs.
func TestUpdateFewNsRecordsAsMeasured(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fixture.json")
	f := &baselineFile{Benchmarks: []*baselineBench{{Benchmark: "BenchmarkPhaseMark"}}}
	runs := mkRuns("BenchmarkPhaseMark/sim/dark", 3.4, 8, 0, true)
	if err := applyUpdate(f, specNamed(t, "BenchmarkPhaseMark"), runs); err != nil {
		t.Fatal(err)
	}
	if err := saveBaseline(path, f); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	vs := evalFull(loaded, groupRuns(runs))
	if len(vs) != 1 || vs[0].Verdict != verdictIndist {
		t.Errorf("a row just recorded against the runs it recorded: %+v, want one %q verdict", vs, verdictIndist)
	}
}

// TestEvalFullMissingVariant: a baseline variant absent from fresh output
// fails (a renamed benchmark must not silently drop out of the gate).
func TestEvalFullMissingVariant(t *testing.T) {
	f := fixtureBaseline()
	groups := map[string][]benchRun{}
	for _, r := range mkRuns("BenchmarkReplayFrame/get/hit", 2407, 8, 0, false) {
		groups[r.Name] = append(groups[r.Name], r)
	}
	vs := evalFull(&baselineFile{Benchmarks: f.Benchmarks[:1]}, groups)
	found := false
	for _, v := range vs {
		if v.Variant == "get/propagate" && v.Verdict == verdictMissing {
			found = true
		}
	}
	if !found || !anyFailure(vs) {
		t.Errorf("missing variant not flagged: %+v", vs)
	}
}

// TestEvalAllocBudget: bare-name benchmark resolution plus the hard
// allocs/op ceiling, in both full and smoke modes. The fixture's SimHotPath
// variant has no recorded runs, so full mode judges its one fresh run on
// allocs/op alone, as smoke mode does: one allocation per 100 of its 150k
// requests is over the budget, and a run twice as slow within it passes.
func TestEvalAllocBudget(t *testing.T) {
	f := fixtureBaseline()
	over := map[string][]benchRun{
		"BenchmarkSimHotPath": mkRuns("BenchmarkSimHotPath", 2635, 1, 13978+1500, true),
	}
	within := map[string][]benchRun{
		"BenchmarkSimHotPath": mkRuns("BenchmarkSimHotPath", 2635*2, 1, 13978, true),
	}
	sub := &baselineFile{Benchmarks: f.Benchmarks[1:]}
	for name, eval := range map[string]func(*baselineFile, map[string][]benchRun) []Verdict{
		"full": evalFull, "smoke": evalSmoke,
	} {
		if vs := eval(sub, over); len(vs) != 1 || vs[0].Verdict != verdictAllocs || !vs[0].fails() {
			t.Errorf("%s: 15478 allocs vs 14190 budget: %+v", name, vs)
		}
		if vs := eval(sub, within); len(vs) != 1 || vs[0].Verdict != verdictAllocsOK || vs[0].fails() {
			t.Errorf("%s: within budget: %+v", name, vs)
		}
	}

	// A budget belongs to its variant: a sibling without one is not judged
	// by it, however many allocations it reports, and a budgeted sibling is.
	zero, eight := int64(0), int64(8)
	frame := &baselineFile{Benchmarks: []*baselineBench{{
		Benchmark: "BenchmarkReplayFrame",
		Results: []*baselineResult{
			{Variant: "get/hit", NsPerOpRuns: []float64{10000}, NsPerOpMedian: 10000,
				AllocsPerOp: &zero, AllocsBudget: &zero},
			{Variant: "get/traced", NsPerOpRuns: []float64{20000}, NsPerOpMedian: 20000,
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
// within its allocs/op budget is allocs-ok, however slow.
func TestEvalSmokeWallBound(t *testing.T) {
	f := fixtureBaseline()
	sub := &baselineFile{Benchmarks: f.Benchmarks[:1]}
	slow := map[string][]benchRun{
		"BenchmarkReplayFrame/get/hit":       mkRuns("BenchmarkReplayFrame/get/hit", 2407*2, 1, 0, true),
		"BenchmarkReplayFrame/get/propagate": mkRuns("BenchmarkReplayFrame/get/propagate", 2517*2, 1, 0, true),
	}
	vs := evalSmoke(sub, slow)
	if len(vs) != 2 {
		t.Fatalf("%d verdicts, want 2: %+v", len(vs), vs)
	}
	for _, v := range vs {
		if v.Verdict != verdictAllocsOK || v.EffectPct < 99 {
			t.Errorf("2x smoke run with no alloc budget: %+v", v)
		}
	}
	// Variants with no fresh runs are skipped, not failed.
	if vs := evalSmoke(sub, map[string][]benchRun{}); len(vs) != 2 || vs[0].Verdict != verdictSkipped || anyFailure(vs) {
		t.Errorf("absent smoke runs: %+v", vs)
	}
}

// TestUpdateRoundTrip: -update rewrites runs/medians/derived figures in a
// temp file while preserving prose fields, budgets, and host strings, and
// appends newly appearing sub-bench variants. A variant with no recorded
// runs gets its allocs/op rewritten and stays without runs.
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
	runs = append(runs, mkRuns("BenchmarkReplayFrame/get/hit", 3000, 8, 0, true)...)
	runs = append(runs, mkRuns("BenchmarkReplayFrame/get/propagate", 3300, 8, 0, true)...)
	runs = append(runs, mkRuns("BenchmarkReplayFrame/get/traced", 3350, 8, 8, true)...)
	frameSpec, simSpec := specNamed(t, "BenchmarkReplayFrame"), specNamed(t, "BenchmarkSimHotPath")
	if err := applyUpdate(loaded, frameSpec, runs); err != nil {
		t.Fatal(err)
	}
	if err := applyUpdate(loaded, simSpec, mkRuns("BenchmarkSimHotPath", 2700, 1, 13950, true)); err != nil {
		t.Fatal(err)
	}
	if err := saveBaseline(path, loaded); err != nil {
		t.Fatal(err)
	}
	got, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	frame := got.findBench("BenchmarkReplayFrame")
	if frame == nil || frame.Host != "fixture-host" || frame.Description != "fixture" {
		t.Fatalf("prose fields not preserved: %+v", frame)
	}
	if frame.Command != frameSpec.commandString() {
		t.Errorf("command not rewritten: %q", frame.Command)
	}
	hit := frame.findResult("get/hit")
	if hit == nil || len(hit.NsPerOpRuns) != 8 || hit.NsPerOpMedian < 3000 || hit.OverheadHit != nil {
		t.Fatalf("get/hit runs not rewritten: %+v", hit)
	}
	prop := frame.findResult("get/propagate")
	if prop == nil || prop.OverheadHit == nil || *prop.OverheadHit < 5 || *prop.OverheadHit > 15 {
		t.Errorf("get/propagate overhead_vs_hit not recomputed: %+v", prop)
	}
	traced := frame.findResult("get/traced")
	if traced == nil || len(traced.NsPerOpRuns) != 8 {
		t.Fatalf("new variant not appended with its runs: %+v", traced)
	}
	if traced.OverheadHit == nil || *traced.OverheadHit < 10 || *traced.OverheadHit > 14 {
		t.Errorf("get/traced overhead_vs_hit not derived: %+v", traced)
	}

	sim := got.findBench("BenchmarkSimHotPath")
	r := sim.Results[0]
	if sim.AllocsBudgetNote != note || r.AllocsBudget == nil || *r.AllocsBudget != 14190 {
		t.Errorf("budget fields not preserved: %+v, %+v", sim, r)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 13950 {
		t.Errorf("allocs/op not rewritten: %+v", r)
	}
	if !r.allocsOnly() || r.NsPerOpMedian != 0 {
		t.Errorf("allocs-only variant gained wall-time figures: %+v", r)
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

// specNamed returns the bench spec of the named benchmark.
func specNamed(t *testing.T, name string) benchSpec {
	t.Helper()
	for _, s := range benchSpecs {
		if s.name == name {
			return s
		}
	}
	t.Fatalf("no spec for %s", name)
	return benchSpec{}
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
			if r.allocsOnly() && (r.AllocsBudget == nil || r.NsPerOpMedian != 0) {
				t.Errorf("%s/%s: no recorded runs, so it needs an allocs/op budget and no median", spec.name, r.Variant)
			}
			if !r.allocsOnly() && r.NsPerOpMedian == 0 {
				t.Errorf("%s/%s: recorded runs without a median", spec.name, r.Variant)
			}
		}
		// A whole sim.Run is judged by its allocations alone, in one cold run.
		if spec.name == "BenchmarkSimHotPath" && (spec.benchtime != "1x" || spec.count != 1 || !b.Results[0].allocsOnly()) {
			t.Errorf("%s: want one -benchtime=1x run and no recorded wall time: %+v", spec.name, spec)
		}
	}
}
