package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// rulePanicFree forbids panic() in library code. A panic inside internal/
// takes down a whole replay or the multi-process replayer cluster instead
// of failing one request; library code must return errors. Exemptions:
// cmd/ binaries (panic == crash-on-startup is acceptable),
// functions following the Must* convention (panic-on-error wrappers for
// constant arguments, like regexp.MustCompile), and test files (which the
// loader already skips). The builtin is recognised through type
// information, so a local function named "panic" is never confused for it.
type rulePanicFree struct{}

func (rulePanicFree) Name() string { return "panicfree" }

func (rulePanicFree) Applies(relPath string) bool {
	return !strings.HasPrefix(relPath, "cmd/")
}

func (r rulePanicFree) Check(tree *Tree, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if strings.HasPrefix(name, "Must") || strings.HasPrefix(name, "must") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				ident, ok := call.Fun.(*ast.Ident)
				if !ok || ident.Name != "panic" {
					return true
				}
				if _, isBuiltin := pkg.Info.Uses[ident].(*types.Builtin); !isBuiltin {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos:  pkg.Fset.Position(call.Pos()),
					Rule: r.Name(),
					Message: "panic in library function " + name +
						"; return an error (or use a Must* wrapper for constant arguments)",
				})
				return true
			})
		}
	}
	return diags
}
