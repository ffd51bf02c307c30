package starcdn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the flag package's defining functions and methods, with
// the index of the argument that names the flag.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1,
	"TextVar": 1, "Var": 1,
}

// TestEveryFlagHasAReader holds every command under cmd/ to the rule that a
// flag stays only if a reader sets it: a test in the command's own package
// (the flag as the string literal "-name" or "-name=…"), or a line of
// scripts/*.sh or the Makefile that names the command and passes -name. A
// command stays only if its tests run it (call its run function).
func TestEveryFlagHasAReader(t *testing.T) {
	scripts := scriptLines(t)
	dirs, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		cmd := filepath.Base(dir)
		flags, literals, runsIt := parseCommand(t, dir)
		t.Logf("%s: %d flags %v", cmd, len(flags), flags)
		if !runsIt {
			t.Errorf("%s: no test runs the command (calls run)", cmd)
		}
		for _, name := range flags {
			if literals["-"+name] || scripted(scripts, cmd, name) {
				continue
			}
			t.Errorf("%s: flag -%s has no reader: no test of %s sets it and no script or Makefile line passes it", cmd, name, dir)
		}
	}
}

// parseCommand returns the flags a command's non-test files define, the
// string literals of its tests (each "-name=…" also under "-name"), and
// whether a test calls run.
func parseCommand(t *testing.T, dir string) (flags []string, literals map[string]bool, runsIt bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	literals = make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		isTest := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if isTest && n.Kind == token.STRING {
					if s, err := strconv.Unquote(n.Value); err == nil {
						literals[s] = true
						if name, _, ok := strings.Cut(s, "="); ok {
							literals[name] = true
						}
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "run" && isTest {
					runsIt = true
				}
				if !isTest && importsFlag(f) {
					if name, ok := flagName(n); ok {
						flags = append(flags, name)
					} else if ok = isFlagDefiner(n); ok {
						t.Errorf("%s: a flag whose name is not a string literal", fset.Position(n.Pos()))
					}
				}
			}
			return true
		})
	}
	sort.Strings(flags)
	return flags, literals, runsIt
}

func importsFlag(f *ast.File) bool {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"flag"` {
			return true
		}
	}
	return false
}

// isFlagDefiner reports whether call is x.Name(…) with Name a flag-defining
// function or method, x an identifier (the flag package or a FlagSet) and
// at least the three arguments every definer takes, which time.Duration(d)
// and the like do not have.
func isFlagDefiner(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if _, ok := sel.X.(*ast.Ident); !ok {
		return false
	}
	i, ok := flagDefiners[sel.Sel.Name]
	return ok && i < len(call.Args) && len(call.Args) >= 3
}

// flagName returns the literal name a flag-defining call gives its flag.
func flagName(call *ast.CallExpr) (string, bool) {
	if !isFlagDefiner(call) {
		return "", false
	}
	lit, ok := call.Args[flagDefiners[call.Fun.(*ast.SelectorExpr).Sel.Name]].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, err == nil
}

// scriptLines returns the lines of scripts/*.sh and the Makefile, each
// backslash-continued line joined to the next.
func scriptLines(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, path := range append(paths, "Makefile") {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.ReplaceAll(string(b), "\\\n", " ")
		lines = append(lines, strings.Split(joined, "\n")...)
	}
	return lines
}

// scripted reports whether a script line names cmd and passes -name.
func scripted(lines []string, cmd, name string) bool {
	arg := regexp.MustCompile(`(^|\s)-` + regexp.QuoteMeta(name) + `(=|\s|$)`)
	for _, l := range lines {
		if strings.Contains(l, cmd) && arg.MatchString(l) {
			return true
		}
	}
	return false
}
