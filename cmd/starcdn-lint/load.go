package main

// This file implements the typed loader: it parses every package of the
// module under a single *token.FileSet, resolves module-internal imports
// itself, and type-checks the packages in dependency order with go/types.
// Standard-library imports are served from compiled export data
// (go/importer's gc importer) with a source-importer fallback, so the
// engine stays stdlib-only and works both against the real repository and
// against the fixture trees under testdata/ (which carry their own go.mod).
//
// Type information is what elevates the suite from a syntactic walker to a
// real analysis engine: map types resolve through aliases, embedded fields,
// and cross-package declarations (maporder); dropped error results are
// detected from signatures (errdrop); net.Conn values are recognised by
// method set (deadline); and the interprocedural call graph built on top
// (callgraph.go) turns the determinism rules into taint analyses.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked directory of non-test Go files.
type Package struct {
	// RelPath is the slash-separated directory path relative to the module
	// root, e.g. "internal/sim". Rules select targets by RelPath prefix so
	// the same engine runs against fixture trees in tests.
	RelPath string
	// ImportPath is the full import path (module path + RelPath).
	ImportPath string
	// Fset is the tree-wide file set shared by every package.
	Fset  *token.FileSet
	Files []*ast.File
	// Types and Info carry the go/types results for the package. Info is
	// fully populated (Types, Defs, Uses, Selections, Implicits) for every
	// loaded package.
	Types *types.Package
	Info  *types.Info

	imports []string // module-internal imports, for the topological sort
}

// Tree is the whole loaded module: every package, type-checked under one
// file set, plus the lazily built interprocedural call graph.
type Tree struct {
	Root     string
	Fset     *token.FileSet
	Packages []*Package
	byPath   map[string]*Package // import path -> package

	graph *callGraph // built on first use
}

// importPathFor joins the module path and a package RelPath.
func importPathFor(module, rel string) string {
	if rel == "" {
		return module
	}
	return module + "/" + rel
}

// readModulePath extracts the module path from root/go.mod.
func readModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if rest != "" {
				return strings.Trim(rest, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("no module directive in %s", filepath.Join(root, "go.mod"))
}

// buildContext returns the go/build context used to select files.
func buildContext() build.Context {
	ctx := build.Default
	ctx.GOOS = runtime.GOOS
	ctx.GOARCH = runtime.GOARCH
	// File selection must not depend on what is installed; never consult
	// the filesystem beyond the file contents themselves.
	ctx.UseAllFiles = false
	return ctx
}

// parseDir parses the non-test .go files of one directory that match the
// lint build context. Returns nil if the directory holds no Go files.
func parseDir(fset *token.FileSet, ctx *build.Context, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := ctx.MatchFile(dir, name); err != nil || !ok {
			continue // excluded by build constraints for the lint tag set
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleImports returns the module-internal import paths of the files.
func moduleImports(module string, files []*ast.File) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if (p == module || strings.HasPrefix(p, module+"/")) && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// stdImporter resolves non-module imports: compiled export data first (fast,
// exact), falling back to type-checking the dependency from source. Both
// paths are stdlib (go/importer); results are memoised per load.
type stdImporter struct {
	fset  *token.FileSet
	gc    types.Importer
	src   types.Importer // lazily constructed source importer
	cache map[string]*types.Package
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	return &stdImporter{
		fset:  fset,
		gc:    importer.Default(),
		cache: make(map[string]*types.Package),
	}
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.cache[path]; ok {
		return p, nil
	}
	p, err := s.gc.Import(path)
	if err != nil {
		if s.src == nil {
			s.src = importer.ForCompiler(s.fset, "source", nil)
		}
		var srcErr error
		p, srcErr = s.src.Import(path)
		if srcErr != nil {
			return nil, fmt.Errorf("import %q: export data: %v; source: %v", path, err, srcErr)
		}
	}
	s.cache[path] = p
	return p, nil
}

// treeImporter serves module-internal packages from the tree (checked in
// dependency order, so they are always present) and everything else from
// the stdlib importer.
type treeImporter struct {
	module string
	byPath map[string]*Package
	std    *stdImporter
}

func (t *treeImporter) Import(path string) (*types.Package, error) {
	if path == t.module || strings.HasPrefix(path, t.module+"/") {
		if pkg, ok := t.byPath[path]; ok && pkg.Types != nil {
			return pkg.Types, nil
		}
		return nil, fmt.Errorf("module package %q not loaded (import cycle or missing directory?)", path)
	}
	return t.std.Import(path)
}

// loadTree parses and type-checks every package of the module rooted at
// root. Rules run over the whole tree regardless of the lint patterns, so
// cross-package type information and the call graph are always complete.
func loadTree(root string) (*Tree, error) {
	module, err := readModulePath(root)
	if err != nil {
		return nil, err
	}
	dirs := make(map[string]bool)
	if err := collectDirs(root, dirs); err != nil {
		return nil, err
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	ctx := buildContext()
	fset := token.NewFileSet()
	tree := &Tree{
		Root:   root,
		Fset:   fset,
		byPath: make(map[string]*Package),
	}
	for _, dir := range sorted {
		files, err := parseDir(fset, &ctx, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			rel = ""
		}
		rel = filepath.ToSlash(rel)
		pkg := &Package{
			RelPath:    rel,
			ImportPath: importPathFor(module, rel),
			Fset:       fset,
			Files:      files,
			imports:    moduleImports(module, files),
		}
		tree.Packages = append(tree.Packages, pkg)
		tree.byPath[pkg.ImportPath] = pkg
	}

	order, err := topoSort(tree)
	if err != nil {
		return nil, err
	}
	imp := &treeImporter{module: module, byPath: tree.byPath, std: newStdImporter(fset)}
	var typeErrs []error
	for _, pkg := range order {
		conf := types.Config{
			Importer: imp,
			Sizes:    types.SizesFor("gc", runtime.GOARCH),
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		// Check reports errors through conf.Error and still returns as much
		// type information as it could compute; the hard failure below keeps
		// the engine honest (a tree that does not type-check cannot be
		// soundly linted) while surfacing every error at once.
		tpkg, _ := conf.Check(pkg.ImportPath, fset, pkg.Files, info)
		pkg.Types = tpkg
		pkg.Info = info
	}
	if len(typeErrs) > 0 {
		max := len(typeErrs)
		if max > 10 {
			max = 10
		}
		msgs := make([]string, 0, max+1)
		for _, e := range typeErrs[:max] {
			msgs = append(msgs, e.Error())
		}
		if len(typeErrs) > max {
			msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-max))
		}
		return nil, fmt.Errorf("type checking failed:\n\t%s", strings.Join(msgs, "\n\t"))
	}
	return tree, nil
}

// topoSort orders the tree's packages so every package follows its
// module-internal dependencies.
func topoSort(tree *Tree) ([]*Package, error) {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // done
	)
	state := make(map[*Package]int)
	var order []*Package
	var visit func(pkg *Package, path []string) error
	visit = func(pkg *Package, path []string) error {
		switch state[pkg] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("import cycle: %s -> %s", strings.Join(path, " -> "), pkg.ImportPath)
		}
		state[pkg] = grey
		for _, dep := range pkg.imports {
			if depPkg, ok := tree.byPath[dep]; ok {
				if err := visit(depPkg, append(path, pkg.ImportPath)); err != nil {
					return err
				}
			}
		}
		state[pkg] = black
		order = append(order, pkg)
		return nil
	}
	for _, pkg := range tree.Packages {
		if err := visit(pkg, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// collectDirs walks base and records every directory that could hold a
// lintable package. testdata, vendor, hidden, and underscore-prefixed
// directories are skipped.
func collectDirs(base string, dirs map[string]bool) error {
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs[path] = true
		return nil
	})
}
