package analysis

import (
	"go/ast"
	"go/types"
)

const memPkgPath = "photon/internal/mem"

// BufRetain enforces the pooled-buffer lifetime invariant: a slice
// obtained from (*mem.BufPool).Get is scratch owned by the calling
// frame and must be either returned to the pool or handed off to a
// callee whose contract covers it — never stashed where it outlives
// the operation that borrowed it. A retained pooled buffer is the
// worst kind of bug: Put recycles it under the holder and two
// operations silently share bytes.
//
// Mechanically, for every `buf := pool.Get(n)` (and every local alias
// or re-slice of buf) the analyzer reports:
//
//   - stores into struct fields, package-level variables, slice/map
//     elements, or through pointers;
//   - retention inside composite literals, except literals passed
//     directly as arguments to non-builtin calls (that is a hand-off:
//     the callee's contract owns the buffer, e.g. wireOp{local: ent}
//     given to postPair);
//   - appending the buffer itself as an element into a slice;
//   - capture by goroutines or escaping closures, and channel sends;
//   - returning the buffer;
//   - a Get whose result is never released at all — passed to no
//     function (not even Put). Any non-builtin call receiving the
//     buffer counts as a hand-off, so this is a backstop against
//     dropped Put calls on straight-line scratch use, not a full
//     leak analysis.
//
// CopyOwned is exempt by design: its documented contract transfers
// ownership permanently (Completion.Data). A small CopyOwned copy is a
// capped slice of a shared chunk whose bytes are never handed out
// again, so retaining it is as safe as retaining a plain allocation;
// it only keeps its chunk alive. Intentional retentions —
// e.g. an atomic result word parked in the token table until its
// completion — are documented in place with //photon:allow bufretain.
var BufRetain = &Analyzer{
	Name: "bufretain",
	Doc:  "flags pooled BufPool buffers that escape or are never released",
	Run:  runBufRetain,
}

func runBufRetain(pass *Pass) error {
	for _, f := range pass.Files {
		parents := buildParents(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			bufRetainFunc(pass, parents, fn)
		}
	}
	return nil
}

// poolGetRoot describes one pool.Get call bound to a local variable.
type poolGetRoot struct {
	call *ast.CallExpr
	obj  types.Object
}

func bufRetainFunc(pass *Pass, parents parentMap, fn *ast.FuncDecl) {
	var roots []poolGetRoot
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBufPoolGet(pass, call) {
			return true
		}
		// Only track results bound to a variable; a Get consumed
		// inline in argument position is an immediate hand-off.
		assign, ok := parents[call].(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		var lhs ast.Expr
		for i, rhs := range assign.Rhs {
			if rhs == call {
				lhs = assign.Lhs[i]
			}
		}
		if lhs == nil {
			return true
		}
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			pass.Reportf(call.Pos(), "pooled buffer from BufPool.Get is discarded without release")
			return true
		}
		obj := pass.ObjectOf(id)
		if obj == nil {
			return true
		}
		roots = append(roots, poolGetRoot{call: call, obj: obj})
		return true
	})

	for _, root := range roots {
		tr := newBufTracker(pass, parents)
		tr.tainted[root.obj] = true
		tr.propagate(fn.Body)
		tr.analyze(fn.Body)
		for _, e := range tr.escapes {
			pass.Reportf(e.pos, "pooled buffer %s %s; it may be recycled under the holder (copy it, or document the hand-off with //photon:allow bufretain)", root.obj.Name(), e.what)
		}
		if tr.releases == 0 && len(tr.escapes) == 0 {
			pass.Reportf(root.call.Pos(), "pooled buffer %s is never released: no BufPool.Put and no hand-off call", root.obj.Name())
		}
	}
}

// isBufPoolGet matches calls to (*photon/internal/mem.BufPool).Get.
func isBufPoolGet(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	return fn != nil && fn.Name() == "Get" && methodOnType(fn, memPkgPath, "BufPool")
}
