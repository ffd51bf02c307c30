package main

import (
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: starcdn
cpu: Intel(R) Xeon(R) CPU @ 2.70GHz
BenchmarkSimHotPath-8   	       5	2600814062 ns/op	        74829 allocs/op
BenchmarkSimHotPath-8   	       5	2590000000 ns/op	        74829 allocs/op
BenchmarkObsOverhead/off-8         	       5	2391489942 ns/op	  62.72 MB/s
BenchmarkObsOverhead/metrics+trace-8       	       5	2990192498 ns/op	  50.16 MB/s
BenchmarkReplayFrame/get/hit-8     	   20000	      5431 ns/op	       0 B/op	       0 allocs/op
--- experiment report: scheme=starcdn hit_ratio=0.83 Benchmark commentary line
PASS
ok  	starcdn	31.2s
`

func TestParseBenchOutput(t *testing.T) {
	runs, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 5 {
		t.Fatalf("parsed %d runs, want 5: %+v", len(runs), runs)
	}
	first := runs[0]
	if first.Name != "BenchmarkSimHotPath" ||
		first.NsPerOp != 2600814062 || !first.HasAllocs || first.AllocsPerOp != 74829 {
		t.Errorf("first run parsed wrong: %+v", first)
	}
	trace := runs[3]
	if trace.Name != "BenchmarkObsOverhead/metrics+trace" || trace.HasAllocs {
		t.Errorf("sub-bench run parsed wrong: %+v", trace)
	}
	frame := runs[4]
	if frame.Name != "BenchmarkReplayFrame/get/hit" || frame.NsPerOp != 5431 ||
		!frame.HasAllocs || frame.AllocsPerOp != 0 {
		t.Errorf("nested sub-bench parsed wrong: %+v", frame)
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkSimHotPath-8":                "BenchmarkSimHotPath",
		"BenchmarkObsOverhead/metrics+trace-8": "BenchmarkObsOverhead/metrics+trace",
		"BenchmarkNoSuffix":                    "BenchmarkNoSuffix",
		"BenchmarkDash-abc":                    "BenchmarkDash-abc",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGroupRuns(t *testing.T) {
	runs, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	groups := groupRuns(runs)
	if len(groups["BenchmarkSimHotPath"]) != 2 {
		t.Errorf("SimHotPath group has %d runs, want 2", len(groups["BenchmarkSimHotPath"]))
	}
	if len(groups["BenchmarkObsOverhead/off"]) != 1 {
		t.Errorf("off group has %d runs, want 1", len(groups["BenchmarkObsOverhead/off"]))
	}
}
