package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The tests run every workload at toy scale. They assert structure and
// answers, never how long something took.

const testSeed = 7 // held out: golden.json pins seed 42 only

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// tracedToy caches one traced toy run per workload for the tests that read it.
var tracedToy = func() func(s spec) (*result, *tracer) {
	type run struct {
		once sync.Once
		res  *result
		t    *tracer
	}
	runs := map[string]*run{}
	for _, s := range specs {
		runs[s.Name] = &run{}
	}
	return func(s spec) (*result, *tracer) {
		r := runs[s.Name]
		r.once.Do(func() { r.res, r.t = runTraced(s.toy(), testSeed, 0.05, io.Discard) })
		return r.res, r.t
	}
}()

// toy shrinks a workload to test size while keeping its shape: same program,
// class and city count, a cache small enough to evict.
func (s spec) toy() spec {
	s.Requests = 2000
	if s.Program != progSim {
		s.Requests = 1500
	}
	if s.DurationSec > 150 {
		s.DurationSec = 150
	}
	s.Objects = 400
	s.CacheBytes /= 16
	// One request is 0.07 % of a toy trace, so an interleaving that moves a
	// handful of hits needs more room than at full scale.
	s.HitRateTol *= 10
	return s
}

// selfSeconds returns each span's duration minus the part its children cover.
func selfSeconds(spans []span) []float64 {
	self := make([]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

func requireCorrect(t *testing.T, res *result) {
	t.Helper()
	for _, p := range res.problems {
		t.Errorf("failed check: %s", p)
	}
	if res.attempted < 1 || res.failed() != 0 {
		t.Errorf("attempted %d, failed %d", res.attempted, res.failed())
	}
	if missing := res.metrics.missing(); len(missing) > 0 {
		t.Errorf("metrics not measured: %v", missing)
	}
	if extra := res.metrics.undeclared; len(extra) > 0 {
		t.Errorf("metrics measured but not declared: %v", extra)
	}
}

func TestEveryWorkloadEndToEnd(t *testing.T) {
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			res := runE2E(s.toy(), testSeed, 0.05, nil, io.Discard)
			requireCorrect(t, res)
			for name, v := range res.metrics.values {
				if v.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, v.Value)
				}
			}
			if got := len(res.samples["req_per_s"]); got < minIterations {
				t.Errorf("%d timed iterations, want at least %d", got, minIterations)
			}
		})
	}
}

func TestEveryWorkloadTraced(t *testing.T) {
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			res, tr := tracedToy(s)
			requireCorrect(t, res)
			checkSpanTree(t, tr.spans)
			for _, name := range []string{"workload.Generate", "trace.Validate", "orbit.New",
				"core.NewHashScheme", "replayer.NewCluster", "replayer.Cluster.Addr", "replayer.Cluster.Close"} {
				if len(tr.seconds(name)) == 0 {
					t.Errorf("no %s span", name)
				}
			}
			if got := res.metrics.get("tracing.spans"); got != float64(len(tr.spans)) {
				t.Errorf("tracing.spans = %v, recorded %d", got, len(tr.spans))
			}
			// The by-source counts of a whole-trace pass partition the trace.
			var served float64
			for _, src := range sourceNames {
				served += res.metrics.get("sim.by_source." + src)
			}
			// Generate rounds each city's share, so a trace is within one
			// request per city of the size asked for.
			if want := float64(s.toy().Requests); math.Abs(served-want) > float64(s.Cities) {
				t.Errorf("sim.by_source.* sum to %v, trace has about %v requests", served, want)
			}
		})
	}
}

// checkSpanTree asserts the span file is a well-formed forest: ids are
// positions, parents come first, children lie inside their parents, and no
// span's children cover more than the span itself.
func checkSpanTree(t *testing.T, spans []span) {
	t.Helper()
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= i {
			t.Fatalf("span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]",
					i, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
			}
		}
	}
	for i, self := range selfSeconds(spans) {
		if self < 0 {
			t.Errorf("span %d (%s) has self time %v: its children cover more than it does", i, spans[i].Name, self)
		}
	}
}

// TestExactMetricsRepeat runs the sequential replay's traced run a second
// time. Its traced run passes the trace through sim.Run, the replayer and every
// driver, so it reads every metric that is marked exact.
func TestExactMetricsRepeat(t *testing.T) {
	s, _ := specByName("replay_seq_hits")
	first, _ := tracedToy(s)
	second, _ := runTraced(s.toy(), testSeed, 0.05, io.Discard)
	requireCorrect(t, second)
	names := exactNames(s)
	if len(names) < 10 {
		t.Errorf("only %v are marked exact", names)
	}
	for _, name := range names {
		if a, b := first.metrics.get(name), second.metrics.get(name); a != b {
			t.Errorf("%s is marked exact but read %v then %v", name, a, b)
		}
	}
}

func TestGoldenGate(t *testing.T) {
	s, _ := specByName("sim_dense_hits")
	s = s.toy()
	pinned := runE2E(s, testSeed, 0.05, nil, io.Discard).outcome

	res := runE2E(s, testSeed, 0.05, &pinned, io.Discard)
	requireCorrect(t, res)

	corrupt := pinned
	corrupt.Hits++
	res = runE2E(s, testSeed, 0.05, &corrupt, io.Discard)
	if res.correct() {
		t.Fatal("a corrupted golden value passed")
	}
	if res.attempted < 1 || res.failed() != res.attempted {
		t.Errorf("attempted %d, failed %d: every operation must count as failed", res.attempted, res.failed())
	}
	var stdout, stderr bytes.Buffer
	if code := report(res, &stdout, &stderr); code == 0 {
		t.Error("a failed run exits 0")
	}
	if !strings.Contains(stderr.String(), "golden") {
		t.Errorf("stderr does not name the golden mismatch: %q", stderr.String())
	}
}

func TestGoldenFilePinsTheDeterministicWorkloads(t *testing.T) {
	for _, s := range specs {
		o, err := goldenFor(s.Name, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.HitRateTol == 0; (o != nil) != want {
			t.Errorf("%s: pinned = %v, want %v", s.Name, o != nil, want)
		}
		if o != nil && (o.Requests < int64(s.Requests) || o.bySourceTotal() != o.Requests) {
			t.Errorf("%s: golden outcome %+v does not cover the trace", s.Name, *o)
		}
		if held, _ := goldenFor(s.Name, testSeed); held != nil {
			t.Errorf("%s: seed %d is held out but has a golden outcome", s.Name, testSeed)
		}
	}
}

// TestReportLastLine checks the contract of the last line of standard output.
func TestReportLastLine(t *testing.T) {
	s, _ := specByName("sim_sparse_video")
	res := runE2E(s.toy(), testSeed, 0.05, nil, io.Discard)
	var stdout, stderr bytes.Buffer
	if code := report(res, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line has keys %v", keys)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if v, ok := metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
		}
		if !strings.Contains(stdout.String(), d.Name) {
			t.Errorf("the report for people does not print %s", d.Name)
		}
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the last line, want %d", len(metrics), len(endToEnd))
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestManifestMatchesTheCode holds BENCHMARK.json and the declarations in
// this package together: same workloads, same metrics, same units and bounds.
func TestManifestMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(m.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := m.Workloads[i]; w.Name != s.Name || w.Why != s.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, s.Name, s.Why)
		}
		if !nameRE.MatchString(s.Name) || len(s.Why) > 200 || strings.Contains(s.Why, "\n") {
			t.Errorf("workload %q breaks the naming contract", s.Name)
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the code; want the same, in (0, 0.25]", d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics have no bound", d.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
}
