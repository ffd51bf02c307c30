package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ruleDeadField reports struct fields in internal/ that carry nothing: a
// field that no non-test code reads (it is only written), and an exported
// field that no non-test code sets (every run sees its zero value). Uses are
// the field identifiers in Info.Uses of every loaded package, the reference
// set deadexport walks, classified by where they sit.
//
// A use is a set when it is an assignment, op= or ++ target, a keyed
// literal value, a field of a positional literal, the operand of &, the
// receiver of a pointer method, or an element or field written through it
// (m.Meter.Record(…), m.BySource[s]++). In x.f = append(x.f, …) both sides
// are a set and neither a read. Every other use is a read, and & and a
// pointer-method receiver are both. Through a pointer, slice or map field
// the write lands in the referent, so the field is read, not set.
//
// Exempt: tagged fields (encoding/json reads and sets them by reflection),
// embedded fields, and sync/sync/atomic types, whose zero value is the
// point. A kept field's waiver names its reader or the test that sets it.
type ruleDeadField struct{}

func (ruleDeadField) Name() string { return "deadfield" }

func (r ruleDeadField) CheckTree(tree *Tree) []Diagnostic {
	owner := make(map[*types.Var]string) // candidate → declaring type's name
	read := make(map[*types.Var]bool)
	set := make(map[*types.Var]bool)
	for _, pkg := range tree.Packages {
		internal := pathIn(pkg.RelPath, []string{"internal"})
		for _, file := range pkg.Files {
			names := make(map[ast.Expr]string)
			var stack []ast.Node
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return false
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.TypeSpec:
					names[n.Type] = n.Name.Name + "."
				case *ast.StructType:
					for _, f := range n.Fields.List {
						for _, name := range f.Names {
							v, ok := pkg.Info.Defs[name].(*types.Var)
							if ok && internal && f.Tag == nil && !syncType(v.Type()) {
								owner[v] = names[n]
							}
						}
					}
				case *ast.CompositeLit:
					// A positional literal sets every field.
					t := pkg.Info.TypeOf(n)
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					if st, ok := t.Underlying().(*types.Struct); ok && len(n.Elts) > 0 {
						if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
							for i := range st.NumFields() {
								set[st.Field(i).Origin()] = true
							}
						}
					}
				case *ast.Ident:
					if v, ok := pkg.Info.Uses[n].(*types.Var); ok && v.IsField() {
						v = v.Origin()
						s, rd := fieldUse(pkg, stack[:len(stack)-1], n)
						set[v] = set[v] || s
						read[v] = read[v] || rd
					}
				}
				return true
			})
		}
	}

	var diags []Diagnostic // runLint sorts them
	for v := range owner {
		var msg string
		switch {
		case !read[v]:
			msg = "field " + owner[v] + v.Name() + " is read by no non-test code; " +
				"delete it and its writes, or waive it with the reader that keeps it"
		case v.Exported() && !set[v]:
			msg = "exported field " + owner[v] + v.Name() + " is set by no non-test code, so every run sees its zero value; " +
				"delete it, or waive it with the test or reader that sets it"
		default:
			continue
		}
		diags = append(diags, Diagnostic{Pos: tree.Fset.Position(v.Pos()), Rule: r.Name(), Message: msg})
	}
	return diags
}

// fieldUse classifies the use of a field by its identifier id, whose
// enclosing nodes are stack (innermost last), as a set, a read, or both,
// walking up while the expression still names the field or storage in it.
func fieldUse(pkg *Package, stack []ast.Node, id *ast.Ident) (set, read bool) {
	var e ast.Expr = id
	up := func(p ast.Expr) { e, stack = p, stack[:len(stack)-1] }
	for len(stack) > 0 {
		switch p := stack[len(stack)-1].(type) {
		case *ast.KeyValueExpr:
			return p.Key == id, p.Key != id // a struct literal key is the field itself
		case *ast.ParenExpr:
			up(p)
		case *ast.IndexExpr:
			if p.X != e || refType(pkg.Info.TypeOf(e)) {
				return false, true
			}
			up(p)
		case *ast.SelectorExpr:
			if p.Sel == id {
				up(p) // x.f is the use
				continue
			}
			if refType(pkg.Info.TypeOf(e)) {
				return false, true
			}
			if s := pkg.Info.Selections[p]; s != nil && s.Kind() != types.FieldVal {
				_, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				return ptr, true
			}
			up(p)
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == e {
					return true, false
				}
			}
			return false, true
		case *ast.IncDecStmt:
			return true, false
		case *ast.UnaryExpr:
			return p.Op == token.AND, true
		case *ast.SliceExpr:
			return p.X == e && !refType(pkg.Info.TypeOf(e)), true
		case *ast.CallExpr:
			// x.f = append(x.f, …): the argument only feeds the write back.
			fn, _ := ast.Unparen(p.Fun).(*ast.Ident)
			b, isBuiltin := pkg.Info.Uses[fn].(*types.Builtin)
			as, ok := stack[max(len(stack)-2, 0)].(*ast.AssignStmt)
			selfAppend := isBuiltin && b.Name() == "append" && len(p.Args) > 0 && p.Args[0] == e &&
				ok && len(as.Rhs) == 1 && as.Rhs[0] == p && types.ExprString(as.Lhs[0]) == types.ExprString(e)
			return selfAppend, !selfAppend
		default:
			return false, true
		}
	}
	return false, true
}

// refType reports whether a value of type t refers to storage outside
// itself, so a write through it leaves the value unchanged.
func refType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// syncType reports whether t, behind any pointers or arrays, is declared in
// sync or sync/atomic.
func syncType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Named:
			pkg := u.Obj().Pkg()
			return pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic")
		default:
			return false
		}
	}
}
