package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ruleDeadExport reports exported API in internal/ that nothing runs: an
// exported func, method, const or var that no non-test code of the tree
// references. The loader reads only non-test files, so a reference is any
// entry of Info.Uses or Info.Selections in any loaded package (the root
// facade, cmd/, internal/ and the benchmark module alike), minus references
// from inside the declaration's own body (a recursive call keeps nothing
// alive). An export kept for a reader outside the tree needs a waiver that
// names the reader.
//
// A method is exempt when its receiver type implements an interface that
// declares it and something calls the method through it. For an interface
// declared in the tree that is a call, method value or method expression
// naming the interface's method. The tree cannot see the calls of readers
// outside it, so a standard-library interface counts when the tree uses it
// (written as a type, or the type of a referenced func parameter, result,
// var or field — fmt.Fprintf's io.Writer counts), and so do the interfaces
// the standard library calls dynamically on any value (deadExportDynamic)
// and those the root package, the module's API, names.
type ruleDeadExport struct{}

func (ruleDeadExport) Name() string { return "deadexport" }

// deadExportDynamic are the interfaces the standard library discovers by
// type assertion on values it is handed as `any`: a method satisfying one
// is called without the tree naming the interface.
var deadExportDynamic = [][2]string{
	{"", "error"},
	{"fmt", "Stringer"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
	{"log/slog", "Handler"},
}

func (r ruleDeadExport) CheckTree(tree *Tree) []Diagnostic {
	// The candidates and the extent of each one's declaration.
	type span struct{ pos, end token.Pos }
	decl := make(map[types.Object]span)
	var order []types.Object
	for _, pkg := range tree.Packages {
		if !pathIn(pkg.RelPath, []string{"internal"}) {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if obj := pkg.Info.Defs[d.Name]; obj != nil && obj.Exported() {
						decl[obj] = span{d.Pos(), d.End()}
						order = append(order, obj)
					}
				case *ast.GenDecl:
					if d.Tok != token.CONST && d.Tok != token.VAR {
						continue
					}
					for _, s := range d.Specs {
						vs := s.(*ast.ValueSpec)
						for _, name := range vs.Names {
							if obj := pkg.Info.Defs[name]; obj != nil && obj.Exported() {
								decl[obj] = span{vs.Pos(), vs.End()}
								order = append(order, obj)
							}
						}
					}
				}
			}
		}
	}

	// References, the interfaces the tree uses (api: those the root package
	// names), and the interface methods it calls.
	used := make(map[types.Object]bool)
	ifaces, api := make(map[*types.Interface]bool), make(map[*types.Interface]bool)
	callable := make(map[*types.Func]bool)
	ref := func(obj types.Object, at token.Pos) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				callable[o.Origin()] = true
			}
		case *types.Var:
			obj = o.Origin()
		}
		if s, ok := decl[obj]; ok && (at < s.pos || at >= s.end) {
			used[obj] = true
		}
	}
	for _, pkg := range tree.Packages {
		for id, obj := range pkg.Info.Uses {
			ref(obj, id.Pos())
			if _, ok := obj.(*types.PkgName); !ok {
				addIfaces(ifaces, obj.Type())
			}
		}
		for sel, s := range pkg.Info.Selections {
			ref(s.Obj(), sel.Sel.Pos())
		}
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(ifaces, tv.Type)
				if pkg.RelPath == "" {
					addIface(api, tv.Type)
				}
			}
		}
	}
	for _, dyn := range deadExportDynamic {
		if t := lookupStdType(tree, dyn[0], dyn[1]); t != nil {
			addIface(ifaces, t)
		}
	}
	// Readers outside the tree may call every method of an interface they
	// share with it: a standard-library one, or one the API names.
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if m := it.Method(i); api[it] || m.Pkg() == nil || tree.byPath[m.Pkg().Path()] == nil {
				callable[m] = true
			}
		}
	}

	var diags []Diagnostic
	for _, obj := range order {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && implementsCallable(fn, callable) {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:  tree.Fset.Position(obj.Pos()),
			Rule: r.Name(),
			Message: "exported " + objKind(obj) + " " + obj.Name() + " is referenced by no non-test code; " +
				"delete it, or waive it with the reader that keeps it",
		})
	}
	return diags
}

// objKind names a candidate's declaration kind for the finding message.
func objKind(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Const:
		return "const"
	case *types.Var:
		return "var"
	case *types.Func:
		if obj.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
	}
	return "func"
}

// lookupStdType resolves a universe or standard-library type through the
// tree's own importer, so its method signatures name the same types the
// tree's declarations do. Nil when the package cannot be imported.
func lookupStdType(tree *Tree, path, name string) types.Type {
	scope := types.Universe
	if path != "" {
		pkg, err := tree.std.Import(path)
		if err != nil {
			return nil
		}
		scope = pkg.Scope()
	}
	if obj := scope.Lookup(name); obj != nil {
		return obj.Type()
	}
	return nil
}

// addIface records t in ifaces if it is an interface with methods.
func addIface(ifaces map[*types.Interface]bool, t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		ifaces[it] = true
	}
}

// addIfaces records t, or for a signature every parameter and result type:
// handing a value to a func is how the standard library reaches its methods.
func addIfaces(ifaces map[*types.Interface]bool, t types.Type) {
	sig, ok := t.(*types.Signature)
	if !ok {
		addIface(ifaces, t)
		return
	}
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			addIface(ifaces, tuple.At(i).Type())
		}
	}
}

// implementsCallable reports whether method fn's receiver type, or a pointer
// to it, implements the interface of a callable method of fn's name.
func implementsCallable(fn *types.Func, callable map[*types.Func]bool) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for m := range callable {
		if m.Name() != fn.Name() {
			continue
		}
		it := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}
