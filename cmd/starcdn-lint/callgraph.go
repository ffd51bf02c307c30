package main

// This file builds the interprocedural static call graph that turns the
// determinism rules into taint analyses. Nodes are the module's declared
// functions and methods (*types.Func); edges are statically resolved call
// sites plus *references*: a function or method named as a value (a method
// value like `s.onFailure` passed as a callback, a function identifier
// stored in a table) may be called later, so the reference produces an
// edge — without it, callbacks registered from the simulation packages
// would be invisible to the taint rule. Deferred calls and `go`-statement
// callees are ordinary call expressions and resolve the same way. Calls
// through interfaces end at the abstract callee (no concrete body to
// follow), keeping the analysis free of false paths; the direct
// (per-package) rules cover the packages with the strongest obligations.
//
// During graph construction each function also records its determinism
// "sources": calls to wall-clock time functions (time.Now/Since/Until) and
// to the global math/rand top-level draw functions. rule_taint.go then
// flags every source inside a function transitively reachable from the
// simulation entry packages.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// srcCall is one determinism-relevant call site inside a function.
type srcCall struct {
	pos  token.Pos
	name string // display name, e.g. "time.Now" or "rand.Float64"
}

// funcNode is one declared function or method of the module.
type funcNode struct {
	obj *types.Func
	pkg *Package

	callees    []*types.Func // statically resolved callees and references, in source order
	wallClock  []srcCall     // time.Now/Since/Until call sites
	globalRand []srcCall     // global math/rand draw sites
}

// addEdge records one resolved callee or function reference, routing the
// determinism sources into their dedicated lists.
func (n *funcNode) addEdge(fn *types.Func, pos token.Pos) {
	switch {
	case isWallClock(fn):
		n.wallClock = append(n.wallClock, srcCall{pos: pos, name: "time." + fn.Name()})
	case isGlobalRand(fn):
		n.globalRand = append(n.globalRand, srcCall{pos: pos, name: "rand." + fn.Name()})
	default:
		n.callees = append(n.callees, fn)
	}
}

// callGraph indexes the module's functions and their static call edges.
type callGraph struct {
	nodes map[*types.Func]*funcNode
	order []*funcNode // deterministic: package, file, then declaration order
}

// callGraph returns the tree's call graph, building it on first use.
func (t *Tree) callGraph() *callGraph {
	if t.graph == nil {
		t.graph = buildCallGraph(t)
	}
	return t.graph
}

// calleeOf statically resolves the callee of a call expression using type
// information: plain identifiers, package selectors, and method selectors
// all land in Uses. Returns nil for builtins, conversions, function-typed
// variables, and anything else without one concrete *types.Func.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// wallClockNames are the banned time package functions (shared with the
// direct simtime rule).
var wallClockNames = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// isWallClock reports whether fn is time.Now/Since/Until.
func isWallClock(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
		fn.Type().(*types.Signature).Recv() == nil && wallClockNames[fn.Name()]
}

// isGlobalRand reports whether fn is a top-level math/rand (or v2) function
// drawing from the shared global source. Methods on *rand.Rand pass.
func isGlobalRand(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return globalRandFuncs[fn.Name()]
}

// buildCallGraph walks every function body once, resolving static call
// edges and recording determinism sources.
func buildCallGraph(t *Tree) *callGraph {
	g := &callGraph{nodes: make(map[*types.Func]*funcNode)}
	for _, pkg := range t.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{obj: obj, pkg: pkg}
				// callPos marks identifiers consumed as the callee of a call
				// expression; Inspect visits the CallExpr before its Fun
				// children, so the marks land before the idents are revisited.
				callPos := make(map[*ast.Ident]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.CallExpr:
						switch fun := ast.Unparen(x.Fun).(type) {
						case *ast.Ident:
							callPos[fun] = true
						case *ast.SelectorExpr:
							callPos[fun.Sel] = true
						}
						callee := calleeOf(pkg.Info, x)
						if callee == nil {
							return true
						}
						node.addEdge(callee, x.Pos())
					case *ast.Ident:
						// A function or method referenced as a value: a may-
						// call edge (the stored value can be invoked later).
						if callPos[x] {
							return true
						}
						if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
							node.addEdge(fn, x.Pos())
						}
					}
					return true
				})
				g.nodes[obj] = node
				g.order = append(g.order, node)
			}
		}
	}
	return g
}

// reachableFrom runs a breadth-first search from every function declared in
// a package whose RelPath matches entry (exact or prefix). It returns the
// set of reachable module functions and, for path reporting, each node's
// BFS predecessor (entries have no predecessor). Traversal order is the
// deterministic graph order, so reported chains are stable across runs.
func (g *callGraph) reachableFrom(entries func(relPath string) bool) (map[*types.Func]bool, map[*types.Func]*types.Func) {
	reach := make(map[*types.Func]bool)
	parent := make(map[*types.Func]*types.Func)
	var queue []*funcNode
	for _, n := range g.order {
		if entries(n.pkg.RelPath) {
			reach[n.obj] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, callee := range n.callees {
			if reach[callee] {
				continue
			}
			cn, ok := g.nodes[callee]
			if !ok {
				continue // external or bodiless: no onward edges
			}
			reach[callee] = true
			parent[callee] = n.obj
			queue = append(queue, cn)
		}
	}
	return reach, parent
}

// chainTo renders the call chain from an entry function down to fn, e.g.
// "sim.Run → stats.Mean". Chains longer than five hops elide the middle.
func (g *callGraph) chainTo(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var hops []string
	for f := fn; f != nil; f = parent[f] {
		hops = append(hops, shortFuncName(f))
	}
	// Reverse into entry-to-target order.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	if len(hops) > 5 {
		hops = append(hops[:2], append([]string{"…"}, hops[len(hops)-2:]...)...)
	}
	return strings.Join(hops, " → ")
}

// shortFuncName renders a function as pkg.Name or pkg.(Recv).Name.
func shortFuncName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "(" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + fn.Name()
}
