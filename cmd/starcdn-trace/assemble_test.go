package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"starcdn/internal/obs"
)

// assemblyFixture builds a two-process span set: two client roots with hop
// span IDs, server op spans under the hops, a retry span under a hop, an
// adopted probe span (parent hop never recorded), an orphan trace (no root),
// and one untraced legacy span.
func assemblyFixture() []obs.Span {
	return []obs.Span{
		// Trace A: local hit served by sat 100 under the "owner" hop.
		{Req: 0, TraceID: "aaaa", SpanID: "r0", Proc: "client", Source: "local",
			Hit: true, WallMs: 3,
			Hops: []obs.Hop{
				{Kind: "first-contact", Sat: 100},
				{Kind: "owner", Sat: 100, WallMs: 3, SpanID: "h01"},
			}},
		{TraceID: "aaaa", SpanID: "s1", Parent: "h01", Proc: "sat-100",
			Kind: "get", Hit: true, WallMs: 1},
		// A retry span parented under the same hop.
		{TraceID: "aaaa", SpanID: "s2", Parent: "h01", Proc: "client",
			Kind: "retry", WallMs: 0.5},

		// Trace B: relay path; the failed west probe's server span parents
		// under a hop ID the client never recorded (adoption), the east
		// serve parents under the recorded relay hop.
		{Req: 1, TraceID: "bbbb", SpanID: "r1", Proc: "client", Source: "relay-east",
			Hit: true, WallMs: 9,
			Hops: []obs.Hop{
				{Kind: "first-contact", Sat: 101},
				{Kind: "owner", Sat: 200, WallMs: 2, SpanID: "h11"},
				{Kind: "relay-east", Sat: 201, WallMs: 5, SpanID: "h13"},
			}},
		{TraceID: "bbbb", SpanID: "s3", Parent: "h12", Proc: "sat-202",
			Kind: "contains", WallMs: 1}, // h12 = unrecorded west probe hop
		{TraceID: "bbbb", SpanID: "s4", Parent: "h13", Proc: "sat-201",
			Kind: "get", Hit: true, WallMs: 2},
		// A span nested under another server span (span-to-span parenting).
		{TraceID: "bbbb", SpanID: "s5", Parent: "s4", Proc: "sat-201",
			Kind: "admit", WallMs: 1},

		// Trace C: no root span anywhere — every span is an orphan.
		{TraceID: "cccc", SpanID: "s6", Parent: "zzzz", Proc: "sat-7", Kind: "get"},

		// Legacy span without a trace ID.
		{Req: 9, Source: "ground"},
	}
}

func TestAssembleTreeStructure(t *testing.T) {
	a := assemble(assemblyFixture())
	if len(a.trees) != 2 {
		t.Fatalf("rooted trees = %d, want 2", len(a.trees))
	}
	if a.orphans != 1 {
		t.Errorf("orphans = %d, want 1", a.orphans)
	}
	if a.untraced != 1 {
		t.Errorf("untraced = %d, want 1", a.untraced)
	}
	if a.dupRoots != 0 {
		t.Errorf("dupRoots = %d, want 0", a.dupRoots)
	}
	// Under hops: s1, s2 (trace A), s4 (trace B). Under spans counts as
	// attached too: s5 under s4.
	if a.attached != 4 {
		t.Errorf("attached = %d, want 4", a.attached)
	}

	ta := a.trees[0]
	if ta.id != "aaaa" || ta.root.span.Req != 0 {
		t.Fatalf("first tree = %s req %d", ta.id, ta.root.span.Req)
	}
	if len(ta.hops) != 2 || len(ta.hops[1].children) != 2 {
		t.Fatalf("trace A owner hop children = %+v", ta.hops)
	}

	tb := a.trees[1]
	if len(tb.adopted) != 1 || tb.adopted[0].span.SpanID != "s3" {
		t.Fatalf("trace B adopted = %+v", tb.adopted)
	}
	// s4 under the relay-east hop, with s5 nested beneath s4.
	relay := tb.hops[2]
	if len(relay.children) != 1 || relay.children[0].span.SpanID != "s4" {
		t.Fatalf("relay hop children = %+v", relay.children)
	}
	if len(relay.children[0].children) != 1 || relay.children[0].children[0].span.SpanID != "s5" {
		t.Fatalf("s4 children = %+v", relay.children[0].children)
	}
}

func TestAssembleReportSections(t *testing.T) {
	out := assembleReport(assemblyFixture(), 2, "auto", 5)
	for _, want := range []string{
		"input spans:   9 (2 files)",
		"rooted trees:  2",
		"orphan spans:  1",
		"untraced:      1",
		"critical path by hop (ms, wall):",
		"top 2 slow traces:",
		"(adopted)",
		"sat-201 get",
		"sat-100 get",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("assemble report missing %q:\n%s", want, out)
		}
	}
	// Slowest trace (B, 9ms) renders before A (3ms).
	if bi, ai := strings.Index(out, "req 1"), strings.Index(out, "req 0"); bi > ai {
		t.Errorf("slow-trace ordering wrong:\n%s", out)
	}
}

func TestAssembleReportEmpty(t *testing.T) {
	if out := assembleReport(nil, 3, "auto", 5); out != "no spans (3 input files)\n" {
		t.Errorf("empty assemble report = %q", out)
	}
}

// TestEmptyInputExitsZero is the regression test for the empty-span-file
// bug: a pipeline whose sampling filter caught nothing must see exit 0 and a
// plain "no spans" summary, not a failure.
func TestEmptyInputExitsZero(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-in", empty},
		{"-assemble", "-in", empty},
		{"-in", empty + "," + empty},
	} {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Errorf("%v: %v\n%s", args, err, out.String())
			continue
		}
		if !strings.Contains(out.String(), "no spans") {
			t.Errorf("%v: output %q lacks 'no spans'", args, out.String())
		}
	}
	// A missing file is still an error.
	if err := run([]string{"-in", filepath.Join(dir, "nope.jsonl")}, io.Discard); err == nil {
		t.Error("missing input file did not fail")
	}
}
