package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// failure is a finished run that failed its check: findings, or waiver
// problems with -waivers. It exits 1; any other error exits 2.
type failure string

func (f failure) Error() string { return string(f) }

func main() {
	err := run(os.Args[1:], os.Stdout)
	var f failure
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &f):
		fmt.Fprintln(os.Stderr, "starcdn-lint:", err)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "starcdn-lint:", err)
		os.Exit(2)
	}
}

// run is the command: it lints the patterns, relative to the module root
// above the working directory, and writes findings or the waiver ledger to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("starcdn-lint", flag.ContinueOnError)
	waivers := fs.Bool("waivers", false,
		"audit //lint:ignore directives: list rule, reason, and file:line for each, "+
			"and fail on stale waivers (waived lines that no longer trigger the rule)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"usage: starcdn-lint [-waivers] [packages]\n\n"+
				"Type-checked lint for StarCDN Go packages, twelve rules: determinism\n"+
				"(simtime, globalrand, their interprocedural taint, maporder),\n"+
				"robustness (errdrop, deadline, panicfree, atomicmix), output\n"+
				"hygiene (metricname, printf) and dead API (deadexport, deadfield).\n"+
				"Patterns: ./... (whole module), ./dir/... (subtree), or a directory.\n"+
				"Defaults to ./... relative to the enclosing module root.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	root, err := findModuleRoot()
	if err != nil {
		return err
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := runLint(root, patterns)
	if err != nil {
		return err
	}
	if *waivers {
		if problems := auditWaivers(res, stdout); problems > 0 {
			return failure(fmt.Sprintf("%d waiver problem(s)", problems))
		}
		return nil
	}
	for _, d := range res.diags {
		fmt.Fprintln(stdout, d)
	}
	if len(res.diags) > 0 {
		return failure(fmt.Sprintf("%d finding(s)", len(res.diags)))
	}
	return nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}
