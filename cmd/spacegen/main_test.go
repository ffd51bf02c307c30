package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runGen runs the command in-process and returns its stdout.
func runGen(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// statRequests reads the request count off printed trace statistics.
func statRequests(t *testing.T, stats string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(stats, "requests: %d", &n); err != nil {
		t.Fatalf("no request count in stats: %v\n%s", err, stats)
	}
	return n
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSynthesizeProduction: -class, -requests, -duration and -seed shape the
// production-like trace that -out writes.
func TestSynthesizeProduction(t *testing.T) {
	dir := t.TempDir()
	synth := func(name string, args ...string) (string, []byte) {
		path := filepath.Join(dir, name)
		out := runGen(t, append([]string{"-synthesize-production", "-out", path}, args...)...)
		return out, readFile(t, path)
	}
	web, webTrace := synth("web.sctr", "-class", "web", "-requests", "3000", "-duration", "3600", "-seed", "7")
	if n := statRequests(t, web); n < 2900 || n > 3100 {
		t.Errorf("-requests 3000 wrote %d requests", n)
	}
	if !strings.Contains(web, "duration:        1.0 h\n") {
		t.Errorf("-duration 3600 stats:\n%s", web)
	}
	if short, _ := synth("short.sctr", "-class", "web", "-requests", "1000", "-duration", "3600", "-seed", "7"); statRequests(t, short) > 1100 {
		t.Errorf("-requests 1000 stats:\n%s", short)
	}
	if _, video := synth("video.sctr", "-class", "video", "-requests", "3000", "-duration", "3600", "-seed", "7"); bytes.Equal(video, webTrace) {
		t.Error("-class video wrote the web trace")
	}
	if _, reseeded := synth("seed8.sctr", "-class", "web", "-requests", "3000", "-duration", "3600", "-seed", "8"); bytes.Equal(reseeded, webTrace) {
		t.Error("-seed 8 wrote the seed-7 trace")
	}
	if _, again := synth("again.sctr", "-class", "web", "-requests", "3000", "-duration", "3600", "-seed", "7"); !bytes.Equal(again, webTrace) {
		t.Error("the same flags wrote a different trace")
	}
}

// TestFitAndGenerate: a trace read with -in feeds -stats, -text,
// -save-models and -generate, and models loaded with -models generate the
// same synthetic trace as models fitted on the spot.
func TestFitAndGenerate(t *testing.T) {
	dir := t.TempDir()
	prod := filepath.Join(dir, "prod.sctr")
	synthStats := runGen(t, "-synthesize-production", "-class", "web", "-requests", "3000",
		"-duration", "3600", "-seed", "7", "-out", prod)

	if got := runGen(t, "-in", prod, "-stats"); got != synthStats {
		t.Errorf("-stats of the written trace:\n%s\nwant the synthesis stats:\n%s", got, synthStats)
	}

	tsv := filepath.Join(dir, "prod.tsv")
	runGen(t, "-in", prod, "-text", tsv)
	if lines, n := strings.Count(string(readFile(t, tsv)), "\n"), statRequests(t, synthStats); lines < n {
		t.Errorf("-text wrote %d lines for %d requests", lines, n)
	}

	models := filepath.Join(dir, "models.json")
	runGen(t, "-in", prod, "-save-models", models)
	var m map[string]any
	if err := json.Unmarshal(readFile(t, models), &m); err != nil || len(m) == 0 {
		t.Fatalf("-save-models wrote no JSON models: %v", err)
	}

	fromModels := filepath.Join(dir, "from-models.sctr")
	out := runGen(t, "-models", models, "-generate", "2000", "-seed", "3", "-out", fromModels)
	if !strings.Contains(out, "requests:        2000\n") {
		t.Errorf("-generate 2000 stats:\n%s", out)
	}
	fitted := filepath.Join(dir, "fitted.sctr")
	runGen(t, "-in", prod, "-generate", "2000", "-seed", "3", "-out", fitted)
	if !bytes.Equal(readFile(t, fromModels), readFile(t, fitted)) {
		t.Error("-models and -in generate different traces from the same fit")
	}

	if err := run([]string{"-stats"}, &strings.Builder{}); err == nil {
		t.Error("-stats without -in succeeded")
	}
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Error("no mode flag succeeded")
	}
}
