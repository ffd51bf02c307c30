package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// baselineFile mirrors the committed BENCH_*.json schema. Field order matches
// the files so -update rewrites them without reshuffling diffs.
type baselineFile struct {
	Benchmarks []*baselineBench `json:"benchmarks"`
	Acceptance string           `json:"acceptance,omitempty"`
}

// baselineBench is one benchmark entry with its recorded result variants.
type baselineBench struct {
	Benchmark        string            `json:"benchmark"`
	Description      string            `json:"description,omitempty"`
	Command          string            `json:"command,omitempty"`
	Date             string            `json:"date,omitempty"`
	Host             string            `json:"host,omitempty"`
	Results          []*baselineResult `json:"results"`
	AllocsBudgetNote string            `json:"allocs_per_op_budget_note,omitempty"`
	Acceptance       string            `json:"acceptance,omitempty"`
}

// baselineResult is one variant's recorded runs and derived figures. A
// variant with no recorded runs is gated on its allocs/op alone: its wall
// time is neither recorded nor judged.
type baselineResult struct {
	Variant       string   `json:"variant"`
	NsPerOpRuns   []int64  `json:"ns_per_op_runs,omitempty"`
	NsPerOpMedian int64    `json:"ns_per_op_median,omitempty"`
	AllocsPerOp   *int64   `json:"allocs_per_op,omitempty"`
	AllocsBudget  *int64   `json:"allocs_per_op_budget,omitempty"`
	AllocsPerOpNt string   `json:"allocs_per_op_note,omitempty"`
	OverheadHit   *float64 `json:"overhead_vs_hit_pct,omitempty"`
}

// allocsOnly reports whether the variant is gated on allocs/op alone.
func (r *baselineResult) allocsOnly() bool { return len(r.NsPerOpRuns) == 0 }

// runsFloat converts the recorded runs for the statistics helpers.
func (r *baselineResult) runsFloat() []float64 {
	out := make([]float64, len(r.NsPerOpRuns))
	for i, v := range r.NsPerOpRuns {
		out[i] = float64(v)
	}
	return out
}

// loadBaseline reads and parses one BENCH_*.json file.
func loadBaseline(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f baselineFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // schema drift should fail loudly, not drop fields on rewrite
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// saveBaseline writes a baseline file back with the committed 2-space
// indentation and a trailing newline.
func saveBaseline(path string, f *baselineFile) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(f); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// findResult returns the variant entry of a benchmark (nil when absent).
func (b *baselineBench) findResult(variant string) *baselineResult {
	for _, r := range b.Results {
		if r.Variant == variant {
			return r
		}
	}
	return nil
}

// findBench returns the named benchmark entry (nil when absent).
func (f *baselineFile) findBench(name string) *baselineBench {
	for _, b := range f.Benchmarks {
		if b.Benchmark == name {
			return b
		}
	}
	return nil
}
