package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var familyRE = regexp.MustCompile(`starcdn_[a-z0-9_]+`)

// registryConstructors are the Registry methods whose first argument names a
// metric family.
var registryConstructors = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "TopK": true, "Sketch": true,
}

// derivedSuffixes are the families the expositions and the recorder derive
// from one instrument; a reader of a derived family reads the instrument.
var derivedSuffixes = []string{"", "_bucket", "_count", "_sum", "_topk", "_q", "_samples"}

// TestEveryFamilyHasAReader is the rule for instruments: a starcdn_* family
// registered by non-test code must be named by something that reads it — a
// test, an obs.SLO a command builds or a read-back in a command's summary
// (any mention under cmd/ that is not itself the registration), or the obs
// smoke. A family named only where it is declared is updated per request or
// per epoch for nobody; delete it with the code that feeds it.
func TestEveryFamilyHasAReader(t *testing.T) {
	root := filepath.Join("..", "..")
	declared := map[string]string{} // family -> first declaring position
	read := map[string]bool{}
	markRead := func(text string) {
		for _, name := range familyRE.FindAllString(text, -1) {
			read[name] = true
		}
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			// benchmark/ and the lint fixtures are modules of their own.
			_, statErr := os.Stat(filepath.Join(path, "go.mod"))
			if statErr == nil || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			markRead(string(src))
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// A command registers nothing of its own: a family it names is an
		// obs.SLO field or a handle resolved to print its value.
		inCmd := strings.HasPrefix(filepath.ToSlash(rel), "cmd/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if inCmd || !ok || !registryConstructors[sel.Sel.Name] || len(n.Args) == 0 {
					return true
				}
				lit, ok := n.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				name, _ := strconv.Unquote(lit.Value)
				if _, dup := declared[name]; !dup && familyRE.FindString(name) == name {
					declared[name] = fset.Position(lit.Pos()).String()
				}
			case *ast.BasicLit:
				if inCmd && n.Kind == token.STRING {
					markRead(n.Value)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	smoke, err := os.ReadFile(filepath.Join(root, "scripts", "obs_smoke.sh"))
	if err != nil {
		t.Fatal(err)
	}
	markRead(string(smoke))

	if len(declared) < 20 {
		t.Fatalf("found only %d registered families; the walk is broken", len(declared))
	}
	var orphans []string
	for name, pos := range declared {
		named := false
		for _, suf := range derivedSuffixes {
			named = named || read[name+suf]
		}
		if !named {
			orphans = append(orphans, name+" (registered at "+pos+")")
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d metric families have no reader (no test, cmd/ SLO or summary, or obs smoke names them):\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
}
