// Command starcdn-trace summarises request-path spans emitted by the
// simulator or the TCP replayer (-trace-out JSONL files): per-source latency
// distributions, a per-hop-kind cost breakdown, and the top-N slowest
// serving paths with their full hop chains.
//
// With -assemble it instead stitches span files from multiple processes
// (replay client + satellite servers, starcdn-replay -trace-propagate) into
// per-trace trees, reporting rooted-tree/orphan counts and critical-path
// attribution (network vs remote serving time per hop).
//
// Usage:
//
//	starcdn-replay -in prod.sctr -trace-out spans.jsonl
//	starcdn-trace -in spans.jsonl -top 20
//	starcdn-trace -in spans.jsonl -by sim
//	starcdn-trace -assemble -in client.jsonl,servers.jsonl
//
// Empty inputs are not an error: the tool reports "no spans" and exits 0, so
// a smoke pipeline over a tiny sample cannot fail on an unlucky filter.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"starcdn/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("starcdn-trace: ")
	var (
		in       = flag.String("in", "", "input span file(s), comma-separated (JSONL from -trace-out, required)")
		top      = flag.Int("top", 10, "number of slowest paths/traces to list")
		by       = flag.String("by", "auto", "latency axis: sim, wall, or auto (wall when present)")
		doAssemb = flag.Bool("assemble", false, "stitch multi-process span files into per-trace trees")
	)
	flag.Parse()
	files := splitFiles(*in)
	files = append(files, flag.Args()...)
	if len(files) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	switch *by {
	case "sim", "wall", "auto":
	default:
		log.Fatalf("-by %q: want sim, wall, or auto", *by)
	}
	var spans []obs.Span
	for _, name := range files {
		s, err := readSpanFile(name)
		if err != nil {
			log.Fatal(err)
		}
		spans = append(spans, s...)
	}
	if *doAssemb {
		fmt.Print(assembleReport(spans, len(files), *by, *top))
		return
	}
	if len(spans) == 0 {
		// Zero-span inputs are a valid (if disappointing) result, not an
		// error: report it plainly and exit 0.
		fmt.Printf("no spans (%d input files)\n", len(files))
		return
	}
	fmt.Print(summarize(spans, *by, *top))
}

// splitFiles parses the comma-separated -in list, dropping empty entries.
func splitFiles(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// readSpanFile loads one JSONL span file.
func readSpanFile(name string) ([]obs.Span, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	spans, err := obs.ReadSpans(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return spans, nil
}
