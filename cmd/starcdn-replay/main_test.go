package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"starcdn/internal/geo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// webTrace is a 2,000-request web trace over ten minutes, the obs smoke's
// workload at half its length, written once for every test.
var webTrace string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "starcdn-replay-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	webTrace = filepath.Join(dir, "web.sctr")
	err = writeWebTrace(webTrace)
	code := 1
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		code = m.Run()
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

func writeWebTrace(path string) error {
	cls, err := workload.ClassByName("web")
	if err != nil {
		return err
	}
	g, err := workload.NewGenerator(cls, geo.PaperCities(), 7)
	if err != nil {
		return err
	}
	tr, err := g.Generate(2000, 600)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.Write(f, tr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replay runs the command over webTrace with 64 MB caches and returns its
// stdout.
func replay(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"-in", webTrace, "-cache-mb", "64"}, args...), &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// outcome keeps the lines of a replay summary that depend only on the
// replay's decisions: it drops the wall-clock ones (throughput, wall time,
// the phase table) and the trace file's path.
func outcome(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "requests:") || strings.HasPrefix(line, "wall time:") ||
			strings.HasPrefix(line, "phase breakdown") || strings.HasPrefix(line, "  ") ||
			strings.HasPrefix(line, "trace spans:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// line returns the summary line starting with prefix.
func line(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no %q line in:\n%s", prefix, out)
	return ""
}

func TestSeedPicksTheSchedule(t *testing.T) {
	if one, two := outcome(replay(t, "-seed", "1")), outcome(replay(t, "-seed", "2")); one == two {
		t.Errorf("-seed 1 and -seed 2 replay alike:\n%s", one)
	}
}

// TestConcurrentEqualsSequential: the pipelined replay equals the sequential
// one span for span, once the wall-clock fields are stripped.
func TestConcurrentEqualsSequential(t *testing.T) {
	dir := t.TempDir()
	spans := func(args ...string) (string, []map[string]any) {
		path := filepath.Join(dir, fmt.Sprintf("spans-%d.jsonl", len(args)))
		out := replay(t, append([]string{"-trace-out", path, "-trace-sample", "1"}, args...)...)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var all []map[string]any
		for dec := json.NewDecoder(f); dec.More(); {
			var s map[string]any
			if err := dec.Decode(&s); err != nil {
				t.Fatal(err)
			}
			delete(s, "wall_ms")
			hops, _ := s["hops"].([]any)
			for _, h := range hops {
				delete(h.(map[string]any), "wall_ms")
			}
			all = append(all, s)
		}
		return outcome(out), all
	}
	seqOut, seq := spans()
	concOut, conc := spans("-concurrent")
	if len(seq) < 2000 {
		t.Fatalf("sequential replay traced %d spans for 2000 requests", len(seq))
	}
	if seqOut != concOut {
		t.Errorf("summaries differ:\n%s\nvs -concurrent:\n%s", seqOut, concOut)
	}
	if !reflect.DeepEqual(seq, conc) {
		for i := range seq {
			if i >= len(conc) || !reflect.DeepEqual(seq[i], conc[i]) {
				t.Fatalf("span %d differs (of %d vs %d):\n%v\nvs -concurrent:\n%v", i, len(seq), len(conc), seq[i], conc[min(i, len(conc)-1)])
			}
		}
		t.Fatalf("-concurrent traced %d spans, sequential %d", len(conc), len(seq))
	}
}

// TestChaos: -chaos kills contacted satellites on a schedule that
// -chaos-seed, -chaos-transient and -chaos-revive-sec each change.
func TestChaos(t *testing.T) {
	base := replay(t, "-fault", "-chaos", "0.2")
	var kills, sats, events int
	if _, err := fmt.Sscanf(line(t, base, "chaos schedule:"), "chaos schedule: %d kills over %d contacted satellites (%d events)",
		&kills, &sats, &events); err != nil || kills == 0 || kills != events {
		t.Fatalf("-chaos 0.2 schedule (%v): %d kills, %d events", err, kills, events)
	}
	for _, variant := range [][]string{
		{"-chaos-seed", "2"},
		{"-chaos-transient", "1"},
		{"-chaos-revive-sec", "60"},
	} {
		got := replay(t, append([]string{"-fault", "-chaos", "0.2"}, variant...)...)
		if outcome(got) == outcome(base) {
			t.Errorf("%v replays like the default chaos:\n%s", variant, outcome(got))
		}
		if variant[0] != "-chaos-revive-sec" {
			continue
		}
		// Revivals are events of their own.
		if _, err := fmt.Sscanf(line(t, got, "chaos schedule:"), "chaos schedule: %d kills over %d contacted satellites (%d events)",
			&kills, &sats, &events); err != nil || events <= kills {
			t.Errorf("-chaos-revive-sec 60 schedule (%v): %d kills, %d events", err, kills, events)
		}
	}
	if err := run([]string{"-in", webTrace, "-chaos", "0.2"}, &strings.Builder{}); err == nil {
		t.Error("-chaos without -fault accepted")
	}
}

// injected parses the "injected faults" line.
func injected(t *testing.T, out string) (refused, resets, stalls, truncations int) {
	t.Helper()
	var dials int
	if _, err := fmt.Sscanf(line(t, out, "injected faults:"), "injected faults: %d refused, %d resets, %d stalls, %d truncations (%d dials)",
		&refused, &resets, &stalls, &truncations, &dials); err != nil {
		t.Fatal(err)
	}
	return
}

// TestInjectedFaults: each -inject-* rate injects its own fault kind and no
// other, and -inject-seed reseeds the injector.
func TestInjectedFaults(t *testing.T) {
	for i, flag := range []string{"-inject-refuse", "-inject-reset", "-inject-stall", "-inject-truncate"} {
		rate := "0.01"
		if flag == "-inject-stall" {
			rate = "0.0005" // each stall costs two -io-timeout
		}
		out := replay(t, "-fault", "-io-timeout", "20ms", flag, rate)
		r, re, s, tr := injected(t, out)
		counts := []int{r, re, s, tr}
		for j, n := range counts {
			if (j == i) != (n > 0) {
				t.Errorf("%s %s injected %v (refused, resets, stalls, truncations)", flag, rate, counts)
				break
			}
		}
	}
	one, _, _, _ := injected(t, replay(t, "-fault", "-inject-refuse", "0.05", "-inject-seed", "1"))
	two, _, _, _ := injected(t, replay(t, "-fault", "-inject-refuse", "0.05", "-inject-seed", "2"))
	if one == two {
		t.Errorf("-inject-seed 1 and 2 both refused %d dials", one)
	}
	if err := run([]string{"-in", webTrace, "-inject-stall", "0.1"}, &strings.Builder{}); err == nil {
		t.Error("-inject-stall without -fault accepted")
	}
}

// TestStallsRetry: a stalled read outlives -io-timeout, because a stall
// lasts twice the deadline, and the fault policy retries the frame unless
// -retries allows one attempt only; -phases shows the retry stage's time.
func TestStallsRetry(t *testing.T) {
	retryStage := func(out string) float64 {
		var secs float64
		if _, err := fmt.Sscanf(line(t, out, "  retry "), "  retry %g", &secs); err != nil {
			t.Fatal(err)
		}
		return secs
	}
	out := replay(t, "-fault", "-inject-stall", "0.0005", "-io-timeout", "300ms", "-phases")
	_, _, stalls, _ := injected(t, out)
	wall, err := time.ParseDuration(strings.TrimSpace(strings.TrimPrefix(line(t, out, "wall time:"), "wall time:")))
	if err != nil {
		t.Fatal(err)
	}
	if stalls == 0 || wall < time.Duration(stalls)*600*time.Millisecond {
		t.Errorf("%d stalls of 2 × 300ms took %s", stalls, wall)
	}
	if retryStage(out) == 0 {
		t.Errorf("stalled frames were not retried:\n%s", out)
	}
	once := replay(t, "-fault", "-inject-stall", "0.0005", "-io-timeout", "20ms", "-retries", "1", "-phases")
	if _, _, stalls, _ := injected(t, once); stalls == 0 || retryStage(once) != 0 {
		t.Errorf("-retries 1 retried after %d stalls:\n%s", stalls, once)
	}
}
