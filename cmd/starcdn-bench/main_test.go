package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestRunSmokeFilteredJSON runs the smoke gate on one benchmark the way CI
// runs it on all of them: -bench keeps BenchmarkPhaseMark alone, and -json
// prints its verdicts on stdout.
func TestRunSmokeFilteredJSON(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The command runs from the module root, where the specs' package paths
	// and the baseline files are.
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	var out strings.Builder
	if err := run([]string{"-check", "-smoke", "-bench", "PhaseMark", "-json"}, &out); err != nil {
		t.Fatalf("smoke gate on BenchmarkPhaseMark: %v\n%s", err, out.String())
	}
	var vs []Verdict
	if err := json.Unmarshal([]byte(out.String()), &vs); err != nil {
		t.Fatalf("-json stdout is not a verdict array: %v\n%s", err, out.String())
	}
	if len(vs) == 0 {
		t.Fatal("no verdicts")
	}
	for _, v := range vs {
		if v.Benchmark != "BenchmarkPhaseMark" || v.Verdict != verdictAllocsOK {
			t.Errorf("verdict %+v, want BenchmarkPhaseMark %s only", v, verdictAllocsOK)
		}
	}
}

func TestRunNeedsOneMode(t *testing.T) {
	for _, args := range [][]string{nil, {"-check", "-update"}, {"-update", "-smoke"}} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
