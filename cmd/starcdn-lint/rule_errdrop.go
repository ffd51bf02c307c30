package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// ruleErrDrop flags every error-returning call whose result is silently
// discarded in internal/ and cmd/: a bare expression statement,
// `defer f(...)`, or `go f(...)` where f's signature carries an error
// result. Close and Flush are the sharpest case — trace files, model files
// and TCP frames only hit the disk/socket there, so a dropped error
// silently truncates data — and need no rule of their own. Checking the
// error or explicitly discarding it (`_ = f(...)`, `_, _ = g(...)`) passes
// — the discard is then a visible, reviewable decision — as does a
// //lint:ignore errdrop waiver with a reason.
//
// Principled exemptions (the waiver policy, DESIGN.md §7):
//
//   - the fmt print family (Print*/Fprint*): terminal output is
//     best-effort, and writes routed through buffered sinks surface their
//     errors at the Flush/Close boundary, which this rule enforces;
//   - methods on *bytes.Buffer and *strings.Builder, and the hash.Hash
//     interface: documented to never return a non-nil error (the
//     signatures only exist to satisfy io.Writer).
type ruleErrDrop struct{}

func (ruleErrDrop) Name() string { return "errdrop" }

func (ruleErrDrop) Applies(relPath string) bool {
	return relPath == "internal" || strings.HasPrefix(relPath, "internal/") ||
		strings.HasPrefix(relPath, "cmd/")
}

// callReturnsError reports whether the call's signature carries an error
// result (anywhere in the result tuple).
func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false // builtin, conversion
	}
	errType := types.Universe.Lookup("error").Type()
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errType) {
			return true
		}
	}
	return false
}

// errDropExempt reports whether the call is exempt from errdrop by policy.
func errDropExempt(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil {
		if pkg.Path() == "fmt" &&
			(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
			return true
		}
	}
	// Write on a hash.Hash-typed value: "Write ... never returns an error"
	// per the docs. The method object itself belongs to the embedded
	// io.Writer, so the receiver *expression* type decides.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Write" {
		if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "hash" {
					return true
				}
			}
		}
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				switch obj.Pkg().Path() + "." + obj.Name() {
				case "bytes.Buffer", "strings.Builder",
					"hash.Hash", "hash.Hash32", "hash.Hash64":
					return true
				}
			}
		}
	}
	return false
}

// callDisplayName renders the dropped call for the message.
func callDisplayName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeOf(info, call); fn != nil {
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
			return fn.Name()
		}
		if pkg := fn.Pkg(); pkg != nil {
			return pkg.Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "function value"
}

func (r ruleErrDrop) Check(tree *Tree, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	flag := func(call *ast.CallExpr, how string) {
		if !callReturnsError(pkg.Info, call) || errDropExempt(pkg.Info, call) {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:  pkg.Fset.Position(call.Pos()),
			Rule: r.Name(),
			Message: how + " error result of " + callDisplayName(pkg.Info, call) +
				" is discarded; handle it or assign to _ explicitly",
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					flag(call, "unchecked")
				}
			case *ast.DeferStmt:
				flag(s.Call, "deferred")
			case *ast.GoStmt:
				flag(s.Call, "goroutine")
			}
			return true
		})
	}
	return diags
}
