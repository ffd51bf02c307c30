package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"starcdn/internal/experiments"
)

// runSim runs the command in-process and returns its stdout.
func runSim(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

func TestList(t *testing.T) {
	got := strings.Fields(runSim(t, "-list"))
	want := experiments.Names()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list = %v, want %v", got, want)
	}
}

// TestSeedZeroIsASeed: -seed 0 runs seed 0, not the default 42, and the
// default is the seed of the committed seed-42 golden.
func TestSeedZeroIsASeed(t *testing.T) {
	zero := runSim(t, "-experiment", "fig2", "-seed", "0")
	fortyTwo := runSim(t, "-experiment", "fig2", "-seed", "42")
	if zero == fortyTwo {
		t.Errorf("-seed 0 and -seed 42 give the same report:\n%s", zero)
	}
	if def := runSim(t, "-experiment", "fig2"); def != fortyTwo {
		t.Errorf("default seed differs from -seed 42:\n%s\nvs\n%s", def, fortyTwo)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "reports", "small-seed42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(golden), fortyTwo) {
		t.Errorf("-seed 42 fig2 report is not the golden's:\n%s", fortyTwo)
	}
}

func TestScale(t *testing.T) {
	small := runSim(t, "-experiment", "fig2", "-scale", "small")
	medium := runSim(t, "-experiment", "fig2", "-scale", "medium")
	if small == medium {
		t.Errorf("-scale medium gives the small report:\n%s", small)
	}
	if err := run([]string{"-scale", "large"}, io.Discard); err == nil {
		t.Error("-scale large accepted")
	}
}

// TestTraceAndPhases: -trace-out writes one span per traced request,
// -trace-sample thins them, and -phases appends the stage breakdown; none
// of them changes the report, which stays the seed-42 golden's.
func TestTraceAndPhases(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "reports", "small-seed42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spans := func(sample string, extra ...string) (int, string) {
		path := filepath.Join(dir, "spans-"+sample+".jsonl")
		out := runSim(t, append([]string{"-experiment", "fig10-l9", "-trace-out", path, "-trace-sample", sample}, extra...)...)
		report, tail, ok := strings.Cut(out, "trace spans: ")
		if !ok || !strings.Contains(string(golden), report) {
			t.Errorf("-trace-sample %s %v changed the report:\n%s", sample, extra, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(b), "\n"), tail
	}
	some, phased := spans("0.01", "-phases")
	fewer, plain := spans("0.001")
	if fewer == 0 || fewer >= some/2 {
		t.Errorf("-trace-sample 0.001 wrote %d spans, -trace-sample 0.01 wrote %d", fewer, some)
	}
	if !strings.Contains(phased, "phase breakdown (sim):") || strings.Contains(plain, "phase breakdown") {
		t.Errorf("-phases breakdown:\n%s\nwithout -phases:\n%s", phased, plain)
	}
}

// TestMetricsEndpointLingers scrapes the live endpoint while the command
// lingers after its experiments: -metrics-addr serves the sim's series and
// -record-epoch its flight recorder.
func TestMetricsEndpointLingers(t *testing.T) {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-experiment", "fig10-l9", "-metrics-addr", "127.0.0.1:0",
			"-record-epoch", "600", "-metrics-linger", "2s"}, pw)
		pw.CloseWithError(err)
		done <- err
	}()
	var addr string
	var metrics, series string
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		line := sc.Text()
		if a, ok := strings.CutPrefix(line, "metrics: listening on "); ok {
			addr = a
		}
		if strings.HasPrefix(line, "metrics: lingering") {
			metrics = get(t, "http://"+addr+"/metrics")
			series = get(t, "http://"+addr+"/timeseries.json?match=starcdn_sim_requests_total")
		}
		if rest, ok := strings.CutPrefix(line, "recorder: "); ok {
			// Every run of the experiment ticks 18 epochs of 600 s over
			// the 3 h trace, each run after the last.
			var n int
			if _, err := fmt.Sscanf(rest, "%d epochs at 600s", &n); err != nil || n == 0 || n%18 != 0 {
				t.Errorf("recorder line %q, want a multiple of 18 epochs at 600s", line)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "starcdn_sim_requests_total") {
		t.Errorf("/metrics during linger lacks starcdn_sim_requests_total:\n%.2000s", metrics)
	}
	if !strings.Contains(series, `"epoch_sec":600`) || !strings.Contains(series, "starcdn_sim_requests_total{source=") {
		t.Errorf("/timeseries.json during linger:\n%.2000s", series)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Error(err)
		return ""
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return string(b)
}
