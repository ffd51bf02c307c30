// Command spacegen fits footprint-descriptor models from a production trace
// and generates geo-correlated synthetic traces (the SpaceGEN tool, §4).
//
// Usage:
//
//	spacegen -synthesize-production -class video -requests 200000 -out prod.sctr
//	spacegen -in prod.sctr -save-models models.json
//	spacegen -models models.json -generate 1000000 -out synthetic.sctr
//	spacegen -in prod.sctr -generate 1000000 -out synthetic.sctr
//	spacegen -in synthetic.sctr -stats
//	spacegen -in synthetic.sctr -text synthetic.tsv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"starcdn/internal/geo"
	"starcdn/internal/spacegen"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "spacegen:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, writes trace statistics to stdout and
// notes on the files it writes to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spacegen", flag.ContinueOnError)
	var (
		synthProd = fs.Bool("synthesize-production", false,
			"generate a production-like trace (Akamai-trace substitute) instead of reading one")
		class      = fs.String("class", "video", "traffic class: video, web, download")
		requests   = fs.Int("requests", 100000, "requests for -synthesize-production")
		duration   = fs.Float64("duration", 86400, "trace span in seconds for -synthesize-production")
		in         = fs.String("in", "", "input trace file (binary format)")
		generate   = fs.Int("generate", 0, "fit models from -in (or -models) and generate this many synthetic requests")
		out        = fs.String("out", "", "output trace file (binary format)")
		saveModels = fs.String("save-models", "", "fit models from -in and save them as JSON to this file")
		models     = fs.String("models", "", "load previously saved models instead of fitting from -in")
		text       = fs.String("text", "", "write the -in trace as tab-separated text to this file")
		stats      = fs.Bool("stats", false, "print statistics of the -in trace")
		seed       = fs.Int64("seed", 42, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *synthProd:
		cls, err := workload.ClassByName(*class)
		if err != nil {
			return err
		}
		g, err := workload.NewGenerator(cls, geo.PaperCities(), *seed)
		if err != nil {
			return err
		}
		tr, err := g.Generate(*requests, *duration)
		if err != nil {
			return err
		}
		if err := writeTrace(*out, tr); err != nil {
			return err
		}
		printStats(stdout, tr)

	case *saveModels != "":
		tr, err := readTrace(*in)
		if err != nil {
			return err
		}
		m, err := spacegen.Fit(tr)
		if err != nil {
			return err
		}
		f, err := os.Create(*saveModels)
		if err != nil {
			return err
		}
		err = spacegen.SaveModels(f, m)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spacegen: saved models for %d locations (%d GPD tuples) to %s\n",
			len(m.GPD.Locations), len(m.GPD.Tuples), *saveModels)

	case *generate > 0:
		var m *spacegen.Models
		if *models != "" {
			f, err := os.Open(*models)
			if err != nil {
				return err
			}
			m, err = spacegen.LoadModels(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		} else {
			tr, err := readTrace(*in)
			if err != nil {
				return err
			}
			if m, err = spacegen.Fit(tr); err != nil {
				return err
			}
		}
		if err := m.ValidateRates(); err != nil {
			return err
		}
		gen, err := spacegen.NewGenerator(m, *seed)
		if err != nil {
			return err
		}
		syn, err := gen.Generate(*generate)
		if err != nil {
			return err
		}
		if err := writeTrace(*out, syn); err != nil {
			return err
		}
		printStats(stdout, syn)

	case *stats:
		tr, err := readTrace(*in)
		if err != nil {
			return err
		}
		printStats(stdout, tr)

	case *text != "":
		tr, err := readTrace(*in)
		if err != nil {
			return err
		}
		f, err := os.Create(*text)
		if err != nil {
			return err
		}
		err = trace.WriteText(f, tr)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err

	default:
		fs.Usage()
		return errors.New("nothing to do: give -synthesize-production, -save-models, -generate, -stats or -text")
	}
	return nil
}

func readTrace(path string) (*trace.Trace, error) {
	if path == "" {
		return nil, errors.New("missing -in")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return tr, nil
}

// writeTrace writes tr to path; an empty path writes nothing.
func writeTrace(path string, tr *trace.Trace) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.Write(f, tr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "spacegen: wrote %s (%d requests)\n", path, tr.Len())
	return nil
}

func printStats(w io.Writer, tr *trace.Trace) {
	nObj, objBytes := tr.UniqueObjects()
	fmt.Fprintf(w, "requests:        %d\n", tr.Len())
	fmt.Fprintf(w, "duration:        %.1f h\n", tr.DurationSec()/3600)
	fmt.Fprintf(w, "traffic:         %.2f GB\n", float64(tr.TotalBytes())/(1<<30))
	fmt.Fprintf(w, "unique objects:  %d (%.2f GB footprint)\n", nObj, float64(objBytes)/(1<<30))
	fmt.Fprintf(w, "locations:       %d\n", len(tr.Locations))
	for i, parts := 0, tr.SplitByLocation(); i < len(parts); i++ {
		fmt.Fprintf(w, "  %-16s %10d requests\n", tr.Locations[i], parts[i].Len())
	}
	objSpread, trafSpread := workload.SpreadDistributions(tr)
	fmt.Fprintf(w, "object spread:   ")
	for k := 1; k < len(objSpread); k++ {
		fmt.Fprintf(w, "%d:%.2f ", k, objSpread[k])
	}
	fmt.Fprintf(w, "\ntraffic spread:  ")
	for k := 1; k < len(trafSpread); k++ {
		fmt.Fprintf(w, "%d:%.2f ", k, trafSpread[k])
	}
	fmt.Fprintln(w)
}
