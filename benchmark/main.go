// Command benchmark is the repository's benchmark: six named workloads, each
// generated from a seed, run in a closed loop from this one process and
// checked for correct answers. BENCHMARK.json at the root of the repository
// declares its workloads and metrics; README.md beside this file explains
// them.
//
//	go run . -workload sim_dense_hits -seed 42 -seconds 10            end-to-end metrics
//	go run . -workload sim_dense_hits -seed 42 -seconds 10 -trace 1   per-layer metrics and a span file
//	go run . -repeat 2                                                every workload twice, side by side
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics; everything above it is for people.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// goldenSeed is the one seed whose outcomes golden.json pins. Every other
// seed runs the seed-independent checks only.
const goldenSeed = 42

//go:embed golden.json
var goldenJSON []byte

// goldenFor returns the pinned outcome of a workload at full scale, or nil
// where nothing is pinned: another seed, or the concurrent replay, whose
// hit rate follows its interleaving.
func goldenFor(name string, seed int64) (*outcome, error) {
	if seed != goldenSeed {
		return nil, nil
	}
	var all map[string]outcome
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if o, ok := all[name]; ok {
		return &o, nil
	}
	return nil, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", goldenSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traceOn := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for the end-to-end run")
	spansPath := fs.String("spans", "", "where the traced run writes its spans (default .bench_build/spans-<workload>.json)")
	repeat := fs.Int("repeat", 0, "run every workload this many times and print the sets side by side")
	writeGolden := fs.String("write-golden", "", "pin the seed-42 outcomes of the deterministic workloads to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	host := readHost()
	fmt.Fprintln(stdout, host)
	if host.NProc < 2 {
		fmt.Fprintln(stderr, "warning: fewer than 2 CPUs: replay_conc_churn's two clients and the servers share one")
	}

	switch {
	case *writeGolden != "":
		if err := pinGolden(*writeGolden); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *repeat > 0:
		return repeatSets(*repeat, *seed, *seconds, stdout, stderr)
	}

	s, ok := specByName(*workloadName)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; have %s\n", *workloadName, strings.Join(names, ", "))
		return 2
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d: %s\n", s.Name, *seed, *seconds, *traceOn, s.Why)
	fmt.Fprintf(stdout, "closed loop over the host loopback, %d client goroutine(s), GOMAXPROCS %d\n",
		s.clients(), runtime.GOMAXPROCS(0))

	var res *result
	if *traceOn != 0 {
		var t *tracer
		res, t = runTraced(s, *seed, *seconds, stdout)
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+s.Name+".json")
		}
		if err := writeSpanFile(path, spanFile{
			Host: host, Workload: s.Name, Seed: *seed,
			Metrics: res.metrics.values, Exact: exactNames(s), Spans: t.spans,
		}); err != nil {
			res.failf("span file: %v", err)
		} else {
			fmt.Fprintf(stdout, "%d spans written to %s\n", len(t.spans), path)
		}
	} else {
		golden, err := goldenFor(s.Name, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		res = runE2E(s, *seed, *seconds, golden, stdout)
	}
	return report(res, stdout, stderr)
}

// clients is how many goroutines generate load: one, except one per city in
// the concurrent replay.
func (s spec) clients() int {
	if s.Program == progReplayConc {
		return s.Cities
	}
	return 1
}

func exactNames(s spec) []string {
	var out []string
	for _, d := range perLayer {
		if exact(d.Name, s) {
			out = append(out, d.Name)
		}
	}
	return out
}

// report prints every metric by name, then the verdict as the JSON last line.
func report(res *result, stdout, stderr io.Writer) int {
	fmt.Fprintln(stdout)
	for _, d := range res.metrics.decls {
		v, ok := res.metrics.values[d.Name]
		if !ok {
			continue
		}
		kind := "host"
		if d.Simulated {
			kind = "simulated"
		}
		note := ""
		if xs := res.samples[d.Name]; len(xs) > 0 {
			note = fmt.Sprintf("  n=%d min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g",
				len(xs), quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
		}
		if exact(d.Name, res.spec) {
			note += "  exact"
		}
		fmt.Fprintf(stdout, "%-34s %16.6g %-6s %-9s better=%s%s\n", d.Name, v.Value, v.Unit, kind, d.Better, note)
	}
	if missing := res.metrics.missing(); len(missing) > 0 && res.correct() {
		res.failf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if extra := res.metrics.undeclared; len(extra) > 0 {
		res.failf("metrics measured but not declared: %s", strings.Join(extra, ", "))
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "FAILED CHECK:", p)
	}
	fmt.Fprintf(stdout, "attempted %d failed %d\n", res.attempted, res.failed())

	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), res.attempted, res.failed(), res.metrics.values})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// pinGolden writes the seed-42 outcome of every deterministic workload.
func pinGolden(path string) error {
	all := map[string]outcome{}
	for _, s := range specs {
		if s.HitRateTol != 0 {
			continue
		}
		res := &result{metrics: newMetricSet(nil)}
		in, err := s.setup(goldenSeed, nil)
		if err != nil {
			return err
		}
		chk, err := newChecker(in, res)
		if err != nil {
			return err
		}
		it, err := in.iterate(nil)
		if err != nil {
			return err
		}
		chk.check(it)
		if !res.correct() {
			return fmt.Errorf("%s: %s", s.Name, strings.Join(res.problems, "; "))
		}
		all[s.Name] = chk.ref
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// repeatSets runs every workload sets times and prints, per workload and
// end-to-end metric, each set's value with the quartiles of its samples, how
// far the last set's value is from the first's, and the bound BENCHMARK.json
// allows.
func repeatSets(sets int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	code := 0
	results := make([][]*result, sets)
	for i := range results {
		for _, s := range specs {
			golden, err := goldenFor(s.Name, seed)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(stderr, "set %d: %s\n", i+1, s.Name)
			res := runE2E(s, seed, seconds, golden, io.Discard)
			for _, p := range res.problems {
				fmt.Fprintf(stderr, "FAILED CHECK (%s): %s\n", s.Name, p)
				code = 1
			}
			results[i] = append(results[i], res)
		}
	}
	fmt.Fprintf(stdout, "\n%d sets, seed %d, %g s each\n", sets, seed, seconds)
	fmt.Fprintf(stdout, "| workload | metric | unit |")
	for i := range results {
		fmt.Fprintf(stdout, " set %d value [q1, q3 of its samples] |", i+1)
	}
	fmt.Fprintln(stdout, " last vs first | bound |")
	fmt.Fprintf(stdout, "|---|---|---|%s---|---|\n", strings.Repeat("---|", sets))
	for wi, s := range specs {
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "| %s | %s | %s |", s.Name, d.Name, d.Unit)
			for i := range results {
				r := results[i][wi]
				v := r.metrics.get(d.Name)
				if xs := r.samples[d.Name]; len(xs) > 0 {
					fmt.Fprintf(stdout, " %.6g [%.6g, %.6g] |", v, quantile(xs, 0.25), quantile(xs, 0.75))
				} else {
					fmt.Fprintf(stdout, " %.6g |", v)
				}
			}
			first, last := results[0][wi].metrics.get(d.Name), results[sets-1][wi].metrics.get(d.Name)
			fmt.Fprintf(stdout, " %+.2f%% | %.0f%% |\n", 100*(last-first)/first, 100*d.Bound)
		}
	}
	return code
}
