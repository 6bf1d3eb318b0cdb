package analysis

import (
	"go/ast"
	"go/types"
)

// Intra-package call-graph construction: the cross-function dataflow
// substrate under lockorder (and any future analyzer that needs
// function summaries). photonvet deliberately stops at the package
// boundary — export data carries no bodies, so cross-package effects
// are part of each package's documented contract rather than inferred —
// but inside a package it resolves every static call site and lets an
// analyzer propagate summaries (lock sets, blocking behavior) to a
// fixpoint over the resulting graph, recursion included.
//
// Resolution is static: direct function calls and method calls whose
// callee is a concrete *types.Func declared in this package. Calls
// through interfaces, function values, and closures are not resolved;
// analyzers treat them as opaque (their effects are invisible, the
// usual soundness trade of a vet that must not drown real findings in
// speculation).

// A callSite is one resolved static call to a same-package function.
type callSite struct {
	call   *ast.CallExpr
	callee *types.Func
}

// funcNode is one declared function or method in the package under
// analysis, with its resolved same-package call sites.
type funcNode struct {
	obj  *types.Func
	decl *ast.FuncDecl

	// calls lists resolved same-package call sites in body order.
	// Calls spawned by go statements are excluded: the callee runs on
	// its own stack, so its lock/blocking effects do not occur in the
	// caller's frame. Calls inside function literals are excluded for
	// the same reason — the literal's body runs when the closure is
	// invoked, not where it is written.
	calls []callSite
}

// callGraph is the package's static call graph.
type callGraph struct {
	nodes map[*types.Func]*funcNode
}

// buildCallGraph resolves every function declaration and its
// same-package static call sites.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{nodes: map[*types.Func]*funcNode{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			g.nodes[obj] = &funcNode{obj: obj, decl: fn}
		}
	}
	for _, node := range g.nodes {
		node.calls = g.collectCalls(pass, node.decl.Body)
	}
	return g
}

// collectCalls gathers resolved same-package call sites under root,
// skipping go statements and function literal bodies.
func (g *callGraph) collectCalls(pass *Pass, root ast.Node) []callSite {
	var out []callSite
	skip := map[ast.Node]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			skip[n.Call] = true
			return true
		case *ast.CallExpr:
			if skip[n] {
				return true
			}
			callee := calleeFunc(pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			if _, ok := g.nodes[callee]; ok {
				out = append(out, callSite{call: n, callee: callee})
			}
		}
		return true
	})
	return out
}

// fixpoint propagates per-function summaries over the call graph until
// nothing changes. merge folds a callee's summary into its caller's,
// returning true when the caller's summary grew; it must be monotonic
// (only ever add information) for termination. Recursive and mutually
// recursive functions converge because the summary lattice is finite.
func (g *callGraph) fixpoint(merge func(caller, callee *types.Func) bool) {
	for changed := true; changed; {
		changed = false
		for _, node := range g.nodes {
			for _, cs := range node.calls {
				if merge(node.obj, cs.callee) {
					changed = true
				}
			}
		}
	}
}
