package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	waivers := flag.Bool("waivers", false,
		"audit //lint:ignore directives: list rule, reason, and file:line for each, "+
			"and fail on stale waivers (waived lines that no longer trigger the rule)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: starcdn-lint [-waivers] [packages]\n\n"+
				"Type-checked lint for StarCDN Go packages, twelve rules: determinism\n"+
				"(simtime, globalrand, their interprocedural taint, maporder),\n"+
				"robustness (errdrop, deadline, panicfree, atomicmix), output\n"+
				"hygiene (metricname, printf) and dead API (deadexport, deadfield).\n"+
				"Patterns: ./... (whole module), ./dir/... (subtree), or a directory.\n"+
				"Defaults to ./... relative to the enclosing module root.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "starcdn-lint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := runLint(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "starcdn-lint:", err)
		os.Exit(2)
	}
	if *waivers {
		if problems := auditWaivers(res, os.Stdout); problems > 0 {
			fmt.Fprintf(os.Stderr, "starcdn-lint: %d waiver problem(s)\n", problems)
			os.Exit(1)
		}
		return
	}
	for _, d := range res.diags {
		fmt.Println(d)
	}
	if len(res.diags) > 0 {
		fmt.Fprintf(os.Stderr, "starcdn-lint: %d finding(s)\n", len(res.diags))
		os.Exit(1)
	}
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
