package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ruleAtomicMix flags struct fields accessed through sync/atomic functions
// in one place and by plain loads/stores in another, within the same
// package. Mixed access is the classic "mostly atomic" bug: the plain read
// races with the atomic writer, the race detector only catches it when the
// schedule cooperates, and on weakly ordered hardware the plain load can
// observe a torn or stale value. This guards internal/obs's lock-free
// counters: every access to a field must go through sync/atomic (or,
// better, an atomic.Int64-style typed field, which makes mixing
// impossible).
//
// Detection is type-based: an "atomic access" is &x.f passed to a
// sync/atomic package function; a "plain access" is any other selector
// resolving to the same field object. Composite-literal initialisation is
// not counted — constructing a value before it is shared is not a race.
// A plain access under a mutex that happens-before every atomic access is
// sound but beyond static proof; waive it with a reason.
type ruleAtomicMix struct{}

func (ruleAtomicMix) Name() string { return "atomicmix" }

func (ruleAtomicMix) Applies(relPath string) bool {
	return relPath == "internal" || strings.HasPrefix(relPath, "internal/")
}

// fieldOf resolves a selector to the struct field object it denotes, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var)
}

func (r ruleAtomicMix) Check(tree *Tree, pkg *Package) []Diagnostic {
	// Pass 1: find every &x.f argument to a sync/atomic function, keyed by
	// field object; remember those selector nodes so pass 2 does not count
	// them as plain accesses.
	atomicSites := make(map[*types.Var][]ast.Node)
	atomicArgSel := make(map[*ast.SelectorExpr]bool)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
				fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if f := fieldOf(pkg.Info, sel); f != nil {
					atomicSites[f] = append(atomicSites[f], call)
					atomicArgSel[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicSites) == 0 {
		return nil
	}

	// Pass 2: every other selector on those fields is a plain access.
	var diags []Diagnostic
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicArgSel[sel] {
				return true
			}
			f := fieldOf(pkg.Info, sel)
			if f == nil {
				return true
			}
			sites, mixed := atomicSites[f]
			if !mixed {
				return true
			}
			atomicAt := pkg.Fset.Position(sites[0].Pos())
			diags = append(diags, Diagnostic{
				Pos:  pkg.Fset.Position(sel.Pos()),
				Rule: r.Name(),
				Message: fmt.Sprintf("field %s is accessed atomically at %s:%d but plainly here; "+
					"mixed access hides data races — use sync/atomic everywhere or an atomic.Int64-style typed field",
					f.Name(), relBase(atomicAt.Filename), atomicAt.Line),
			})
			return true
		})
	}
	return diags
}

// relBase trims a path to its final element for compact messages.
func relBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
