package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"starcdn/internal/obs"
)

// fixtureSpans builds a small mixed span set: two fast local hits, one relay
// hit, one slow ground miss, and one no-cover request.
func fixtureSpans() []obs.Span {
	return []obs.Span{
		{Req: 0, TimeSec: 1, Object: 10, Size: 1 << 20, Source: "local",
			Hit: true, SimMs: 12,
			Hops: []obs.Hop{
				{Kind: "first-contact", Sat: 100},
				{Kind: "user-link", Sat: 100, SimMs: 12},
			}},
		{Req: 3, TimeSec: 2, Object: 11, Size: 2 << 20, Source: "local",
			Hit: true, SimMs: 14,
			Hops: []obs.Hop{
				{Kind: "first-contact", Sat: 101},
				{Kind: "user-link", Sat: 101, SimMs: 14},
			}},
		{Req: 5, TimeSec: 3, Object: 12, Size: 4 << 20, Source: "relay-west",
			Hit: true, SimMs: 40,
			Hops: []obs.Hop{
				{Kind: "first-contact", Sat: 102},
				{Kind: "owner", Sat: 200, ISLHops: 3, SimMs: 9},
				{Kind: "relay-west", Sat: 201, ISLHops: 4, SimMs: 15},
				{Kind: "user-link", Sat: 102, SimMs: 16},
			}},
		{Req: 7, TimeSec: 4, Object: 13, Size: 8 << 20, Source: "ground",
			Hit: false, SimMs: 90,
			Hops: []obs.Hop{
				{Kind: "first-contact", Sat: 103},
				{Kind: "owner", Sat: 202, ISLHops: 5, SimMs: 12},
				{Kind: "ground", Sat: 202, SimMs: 60},
				{Kind: "user-link", Sat: 103, SimMs: 18},
			}},
		{Req: 9, TimeSec: 5, Object: 14, Size: 1 << 20, Source: "no-cover",
			Hit: false},
	}
}

func TestSummarizeSections(t *testing.T) {
	out := summarize(fixtureSpans(), "auto", 3)

	// The smoke script greps for this section header.
	for _, want := range []string{
		"per-source latency",
		"per-hop breakdown",
		"top 3 slow paths",
		"latency axis: sim",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	// Hit rate: 3 of 5.
	if !strings.Contains(out, "hit rate:  60.00%") {
		t.Errorf("hit rate line wrong:\n%s", out)
	}

	// Per-source rows exist for every source present.
	for _, src := range []string{"local", "relay-west", "ground", "no-cover"} {
		if !strings.Contains(out, src) {
			t.Errorf("missing per-source row for %q:\n%s", src, out)
		}
	}

	// Top slow paths are latency-descending: ground (90) first, then
	// relay-west (40), then local (14).
	gi := strings.Index(out, "req 7")
	ri := strings.Index(out, "req 5")
	li := strings.Index(out, "req 3")
	if gi < 0 || ri < 0 || li < 0 || !(gi < ri && ri < li) {
		t.Errorf("slow paths out of order (ground=%d relay=%d local=%d):\n%s",
			gi, ri, li, out)
	}

	// The slowest path's hop chain renders in traversal order with ISL
	// annotations.
	if !strings.Contains(out, "owner(202, 5 isl, 12.00ms) -> ground(202, 60.00ms)") {
		t.Errorf("ground path chain not rendered:\n%s", out)
	}
}

func TestSummarizeWallAxis(t *testing.T) {
	spans := []obs.Span{
		{Req: 0, Source: "bucket", Hit: true, SimMs: 5, WallMs: 2.5,
			Hops: []obs.Hop{{Kind: "owner", Sat: 7, WallMs: 2.5}}},
		{Req: 1, Source: "ground", Hit: false, SimMs: 1, WallMs: 9},
	}
	out := summarize(spans, "auto", 2)
	if !strings.Contains(out, "latency axis: wall") {
		t.Errorf("auto axis did not pick wall:\n%s", out)
	}
	// With wall as axis, ground (9ms) outranks bucket (2.5ms) even though
	// sim latencies order the other way.
	if gi, bi := strings.Index(out, "req 1"), strings.Index(out, "req 0"); gi > bi {
		t.Errorf("wall-axis ordering wrong:\n%s", out)
	}
	// Forcing -by sim flips the ranking.
	out = summarize(spans, "sim", 2)
	if !strings.Contains(out, "latency axis: sim") {
		t.Errorf("forced sim axis not honoured:\n%s", out)
	}
	if bi, gi := strings.Index(out, "req 0"), strings.Index(out, "req 1"); bi > gi {
		t.Errorf("sim-axis ordering wrong:\n%s", out)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if out := summarize(nil, "auto", 5); !strings.Contains(out, "no spans") {
		t.Errorf("empty input: %q", out)
	}
}

// writeSpans writes spans as a JSONL span file and returns its path.
func writeSpans(t *testing.T, name string, spans []obs.Span) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runTrace runs the command in-process and returns its stdout.
func runTrace(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// TestRunFlags drives the command's four flags: -in reads the span files
// (comma-separated), -top bounds the slow-path list, -by picks the latency
// axis, and -assemble switches to the cross-process tree report.
func TestRunFlags(t *testing.T) {
	wall := writeSpans(t, "wall.jsonl", []obs.Span{
		{Req: 0, Source: "bucket", Hit: true, SimMs: 5, WallMs: 2.5,
			Hops: []obs.Hop{{Kind: "owner", Sat: 7, WallMs: 2.5}}},
		{Req: 1, Source: "ground", Hit: false, SimMs: 1, WallMs: 9},
	})
	auto := runTrace(t, "-in", wall, "-top", "1")
	if !strings.Contains(auto, "latency axis: wall") || !strings.Contains(auto, "top 1 slow paths") {
		t.Errorf("-top 1 on wall spans:\n%s", auto)
	}
	if strings.Contains(auto, "req 0") {
		t.Errorf("-top 1 listed the faster request:\n%s", auto)
	}
	sim := runTrace(t, "-in", wall, "-top", "1", "-by", "sim")
	if !strings.Contains(sim, "latency axis: sim") || !strings.Contains(sim, "req 0") {
		t.Errorf("-by sim did not rank by sim latency:\n%s", sim)
	}
	if err := run([]string{"-in", wall, "-by", "cpu"}, &strings.Builder{}); err == nil {
		t.Error("-by cpu accepted")
	}

	spans := assemblyFixture()
	client := writeSpans(t, "client.jsonl", spans[:4])
	servers := writeSpans(t, "servers.jsonl", spans[4:])
	out := runTrace(t, "-assemble", "-top", "5", "-in", client+","+servers)
	if want := assembleReport(spans, 2, "auto", 5); out != want {
		t.Errorf("-assemble over two files:\n%s\nwant\n%s", out, want)
	}
}
