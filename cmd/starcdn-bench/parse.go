package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// benchRun is one parsed `go test -bench` result line.
type benchRun struct {
	Name        string // benchmark name with the -<GOMAXPROCS> suffix stripped
	NsPerOp     float64
	AllocsPerOp int64
	HasAllocs   bool // -benchmem was on and the line carried allocs/op
}

// parseBenchOutput extracts the benchmark result lines from `go test -bench`
// output. Lines look like:
//
//	BenchmarkObsOverhead/metrics-8   5  2391489942 ns/op  62.72 MB/s
//	BenchmarkSimHotPath-8            5  2600814062 ns/op  57.67 MB/s  12345678 B/op  74829 allocs/op
//
// Everything else (PASS, ok, experiment report prose) is skipped. Value
// precedes unit, so the scan walks unit tokens and reads the field before
// each.
func parseBenchOutput(r io.Reader) ([]benchRun, error) {
	var out []benchRun
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue // a "Benchmark..." word inside prose, not a result line
		}
		run := benchRun{Name: stripProcs(f[0])}
		seenNs := false
		for i := 2; i+1 <= len(f)-1; i++ {
			switch f[i+1] {
			case "ns/op":
				v, err := strconv.ParseFloat(f[i], 64)
				if err == nil {
					run.NsPerOp = v
					seenNs = true
				}
			case "allocs/op":
				v, err := strconv.ParseInt(f[i], 10, 64)
				if err == nil {
					run.AllocsPerOp = v
					run.HasAllocs = true
				}
			}
		}
		if seenNs {
			out = append(out, run)
		}
	}
	return out, sc.Err()
}

// stripProcs removes the trailing -<GOMAXPROCS> decoration go test appends to
// benchmark names ("BenchmarkSimHotPath-8" -> "BenchmarkSimHotPath"). Only a
// purely numeric suffix is stripped — sub-benchmark names keep their dashes
// ("BenchmarkObsOverhead/metrics+trace-8" loses just the "-8").
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// groupRuns indexes parsed runs by benchmark name.
func groupRuns(runs []benchRun) map[string][]benchRun {
	m := make(map[string][]benchRun)
	for _, r := range runs {
		m[r.Name] = append(m[r.Name], r)
	}
	return m
}
