// Command starcdn-lint is the repository's stdlib-only static analyzer:
// every package of the module is parsed under one file set and type-checked
// with go/types (load.go), and a static interprocedural call graph
// (callgraph.go) makes the determinism rules taint analyses. Twelve rules:
//
//	simtime    — no wall-clock time (time.Now/Since/Until) inside the
//	             simulation packages; sim time must flow through the clock
//	             abstraction so runs are reproducible.
//	globalrand — no global math/rand top-level functions in internal/;
//	             randomness must come from an injected seeded *rand.Rand.
//	taint      — the interprocedural half of the two rules above: a
//	             wall-clock read or global-rand draw in any function
//	             transitively reachable from the simulation packages is
//	             reported (as simtime/globalrand) with its call chain.
//	maporder   — in hashing/figure-emitting packages, ranging over a map
//	             (resolved exactly through aliases, embedded fields, and
//	             cross-package types) must not feed slice appends or output
//	             directly without a sort.
//	errdrop    — no silently discarded error results in internal/ and cmd/
//	             (bare call, defer, or go statement; Close and Flush
//	             included); fmt print-family calls and never-failing
//	             in-memory writers are exempt by policy.
//	deadline   — net.Conn reads/writes in internal/replayer must be
//	             preceded by a SetDeadline/SetReadDeadline/SetWriteDeadline
//	             on the same connection in the same function, protecting
//	             the fault-tolerance contract (a stalled peer must not
//	             hang a replay).
//	metricname — metric names follow the starcdn_<family>_ vocabulary and
//	             bounded label conventions of DESIGN.md §9.
//	panicfree  — no panic() in library code (non-cmd, non-example,
//	             non-test); Must* constructors are exempt by convention.
//	atomicmix  — no struct field accessed both through sync/atomic
//	             functions and by plain loads/stores; mixed access hides
//	             data races from the race detector's happens-before view.
//	printf     — no fmt.Print*/global log.* in internal/ (outside
//	             internal/obs); library output must flow through injected
//	             writers and the obs slog logger so tests can capture it.
//	deadexport — no exported func, method, const or var in internal/ that
//	             no non-test code of either module references; a method
//	             that implements an interface in use is exempt, and a kept
//	             export's waiver names its reader.
//	deadfield  — no struct field in internal/ that no non-test code reads,
//	             and no exported one that no non-test code sets; tagged,
//	             embedded and sync fields are exempt, and a kept field's
//	             waiver names its reader or the test that sets it.
//
// Every rule is held to one standard (DESIGN.md §7): it names a defect it
// caught in this tree or TestInjectedDefectsCaught reintroduces the defect
// and watches the rule fire. Concurrency and allocation are not linted:
// `go test -race` and the allocs/op budgets in BENCH_*.json gate those on
// executed code.
//
// A finding can be suppressed with a directive comment on the same line or
// the line above:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory; a directive without one is itself reported, as
// is a directive buried in a /* */ block comment (which has no effect).
// `starcdn-lint -waivers` audits every directive in the tree and fails on
// stale ones (waived lines that no longer trigger the rule).
//
// The fixture tests under testdata/ compare against goldens; after auditing
// a deliberate change in findings, regenerate with
//
//	go test ./cmd/starcdn-lint -run TestGoldenDiagnostics -update
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Rule is one self-contained per-package check, running with full type
// information for the package and the whole tree.
type Rule interface {
	// Name is the rule identifier used in diagnostics and ignore directives.
	Name() string
	// Applies reports whether the rule inspects the package at relPath.
	Applies(relPath string) bool
	// Check returns the rule's findings for the package.
	Check(tree *Tree, pkg *Package) []Diagnostic
}

// TreeRule is a whole-module analysis: it sees every package at once (the
// taint rules need the full call graph) and may report findings in any
// package.
type TreeRule interface {
	Name() string
	CheckTree(tree *Tree) []Diagnostic
}

// allRules returns the per-package rule set in reporting order.
func allRules() []Rule {
	return []Rule{
		ruleSimTime{},
		ruleGlobalRand{},
		ruleMapOrder{},
		rulePanicFree{},
		ruleErrDrop{},
		ruleAtomicMix{},
		ruleDeadline{},
		rulePrintf{},
		ruleMetricName{},
	}
}

// allTreeRules returns the whole-module analyses.
func allTreeRules() []TreeRule {
	return []TreeRule{ruleTaint{}, ruleDeadExport{}, ruleDeadField{}}
}

// ignoreDirective is a parsed //lint:ignore comment.
type ignoreDirective struct {
	rules  map[string]bool
	reason string
	pos    token.Position
	used   map[string]bool // rules that actually suppressed a finding
}

// ruleNames returns the directive's rule list, sorted.
func (d *ignoreDirective) ruleNames() []string {
	out := make([]string, 0, len(d.rules))
	for r := range d.rules {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// stale returns the directive's rules that suppressed nothing.
func (d *ignoreDirective) stale() []string {
	var out []string
	for _, r := range d.ruleNames() {
		if !d.used[r] {
			out = append(out, r)
		}
	}
	return out
}

// parseIgnores extracts the lint:ignore directives of a file, keyed by the
// line(s) they suppress: the directive's own line and the line below it.
// Malformed directives (missing reason) and inert ones (inside /* */ block
// comments, which never suppress anything) are reported.
func parseIgnores(fset *token.FileSet, file *ast.File) (map[int]*ignoreDirective, []*ignoreDirective, []Diagnostic) {
	const prefix = "//lint:ignore"
	byLine := make(map[int]*ignoreDirective)
	var all []*ignoreDirective
	var malformed []Diagnostic
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "/*") && strings.Contains(c.Text, "lint:ignore") {
				// A directive buried in a block comment silently does
				// nothing; surface it so the author moves it to a //-style
				// comment instead of believing the finding waived.
				for i, line := range strings.Split(c.Text, "\n") {
					trimmed := strings.TrimLeft(line, " \t*/")
					if strings.HasPrefix(trimmed, "lint:ignore") {
						pos := fset.Position(c.Pos())
						malformed = append(malformed, Diagnostic{
							Pos:     token.Position{Filename: pos.Filename, Line: pos.Line + i, Column: pos.Column},
							Rule:    "directive",
							Message: "lint:ignore inside a block comment has no effect; use a //-style comment",
						})
					}
				}
				continue
			}
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, prefix))
			fields := strings.Fields(rest)
			pos := fset.Position(c.Pos())
			if len(fields) < 2 {
				malformed = append(malformed, Diagnostic{
					Pos:     pos,
					Rule:    "directive",
					Message: "malformed //lint:ignore: want `//lint:ignore <rule> <reason>`",
				})
				continue
			}
			d := &ignoreDirective{
				rules:  make(map[string]bool),
				reason: strings.Join(fields[1:], " "),
				pos:    pos,
				used:   make(map[string]bool),
			}
			for _, r := range strings.Split(fields[0], ",") {
				d.rules[r] = true
			}
			byLine[pos.Line] = d
			byLine[pos.Line+1] = d
			all = append(all, d)
		}
	}
	return byLine, all, malformed
}

// ignoreIndex holds every parsed directive of the tree, addressable by
// suppressed (filename, line).
type ignoreIndex struct {
	byFile     map[string]map[int]*ignoreDirective
	directives []*ignoreDirective
	malformed  []Diagnostic
}

// buildIgnoreIndex parses the directives of every file in the tree.
func buildIgnoreIndex(tree *Tree) *ignoreIndex {
	idx := &ignoreIndex{byFile: make(map[string]map[int]*ignoreDirective)}
	for _, pkg := range tree.Packages {
		for _, f := range pkg.Files {
			byLine, all, malformed := parseIgnores(tree.Fset, f)
			if len(byLine) > 0 {
				name := tree.Fset.Position(f.Pos()).Filename
				idx.byFile[name] = byLine
			}
			idx.directives = append(idx.directives, all...)
			idx.malformed = append(idx.malformed, malformed...)
		}
	}
	return idx
}

// suppressed reports whether a directive waives d, marking it used.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	dir := idx.byFile[d.Pos.Filename][d.Pos.Line]
	if dir == nil || !dir.rules[d.Rule] {
		return false
	}
	dir.used[d.Rule] = true
	return true
}

// lintResult is one full analysis run over a tree.
type lintResult struct {
	tree *Tree
	// diags are the unsuppressed findings in the selected packages, sorted.
	diags []Diagnostic
	// directives are every //lint:ignore in the tree, with usage marked.
	directives []*ignoreDirective
}

// selectPackages resolves lint patterns to the set of RelPaths rules report
// on. "./..." (or "...") selects the whole tree; "./dir/..." a subtree;
// anything else one directory.
func selectPackages(tree *Tree, patterns []string) map[string]bool {
	selected := make(map[string]bool)
	for _, pat := range patterns {
		pat = filepath.ToSlash(strings.TrimPrefix(pat, "./"))
		switch {
		case pat == "..." || pat == "":
			for _, pkg := range tree.Packages {
				selected[pkg.RelPath] = true
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			for _, pkg := range tree.Packages {
				if pkg.RelPath == base || strings.HasPrefix(pkg.RelPath, base+"/") {
					selected[pkg.RelPath] = true
				}
			}
		default:
			selected[strings.TrimSuffix(pat, "/")] = true
		}
	}
	return selected
}

// runLint loads the module at root and runs the full rule suite. Rules
// always analyze the whole tree (cross-package types and the call graph
// need every package); patterns only restrict which packages' findings are
// reported. Directive usage is tracked tree-wide so the waiver audit sees
// exact liveness.
func runLint(root string, patterns []string) (*lintResult, error) {
	tree, err := loadTree(root)
	if err != nil {
		return nil, err
	}
	selected := selectPackages(tree, patterns)
	ignores := buildIgnoreIndex(tree)

	var raw []Diagnostic
	for _, rule := range allRules() {
		for _, pkg := range tree.Packages {
			if rule.Applies(pkg.RelPath) {
				raw = append(raw, rule.Check(tree, pkg)...)
			}
		}
	}
	for _, rule := range allTreeRules() {
		raw = append(raw, rule.CheckTree(tree)...)
	}

	var diags []Diagnostic
	for _, d := range raw {
		// suppressed is consulted for every finding, selected or not, so
		// directive usage is exact tree-wide.
		if !ignores.suppressed(d) && selected[relDirOf(root, d.Pos.Filename)] {
			diags = append(diags, d)
		}
	}
	for _, d := range ignores.malformed {
		if selected[relDirOf(root, d.Pos.Filename)] {
			diags = append(diags, d)
		}
	}
	for i := range diags {
		diags[i].Pos.Filename = relativize(root, diags[i].Pos.Filename)
	}
	sortDiagnostics(diags)
	return &lintResult{tree: tree, diags: diags, directives: ignores.directives}, nil
}

// lintTree returns runLint's findings alone; only the tests call it.
func lintTree(root string, patterns []string) ([]Diagnostic, error) {
	res, err := runLint(root, patterns)
	if err != nil {
		return nil, err
	}
	return res.diags, nil
}

// relDirOf returns the slash-separated directory of filename relative to
// root ("" for the root package itself).
func relDirOf(root, filename string) string {
	rel, err := filepath.Rel(root, filepath.Dir(filename))
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(filepath.Dir(filename))
	}
	if rel == "." {
		return ""
	}
	return filepath.ToSlash(rel)
}

// relativize rewrites filename relative to root when possible.
func relativize(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}

// sortDiagnostics orders findings by file, line, column, then rule.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
