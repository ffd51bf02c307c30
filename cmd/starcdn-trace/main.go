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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"starcdn/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "starcdn-trace:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("starcdn-trace", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "input span file(s), comma-separated (JSONL from -trace-out, required)")
		top      = fs.Int("top", 10, "number of slowest paths/traces to list")
		by       = fs.String("by", "auto", "latency axis: sim, wall, or auto (wall when present)")
		doAssemb = fs.Bool("assemble", false, "stitch multi-process span files into per-trace trees")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := append(splitFiles(*in), fs.Args()...)
	if len(files) == 0 {
		fs.Usage()
		return errors.New("no input span files")
	}
	switch *by {
	case "sim", "wall", "auto":
	default:
		return fmt.Errorf("-by %q: want sim, wall, or auto", *by)
	}
	var spans []obs.Span
	for _, name := range files {
		s, err := readSpanFile(name)
		if err != nil {
			return err
		}
		spans = append(spans, s...)
	}
	if *doAssemb {
		fmt.Fprint(stdout, assembleReport(spans, len(files), *by, *top))
		return nil
	}
	if len(spans) == 0 {
		// Zero-span inputs are a valid (if disappointing) result, not an
		// error: report it plainly and exit 0.
		fmt.Fprintf(stdout, "no spans (%d input files)\n", len(files))
		return nil
	}
	fmt.Fprint(stdout, summarize(spans, *by, *top))
	return nil
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
