package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicField is static race detection for mixed atomic/plain access to
// struct fields — the shm ring head/tail cursors and the engine's
// parked/credit mirrors are read by one goroutine while another
// publishes, and a single plain load of such a field is a data race the
// race detector only catches when the schedule cooperates.
//
// Two field populations are checked:
//
//   - Old-API fields: any field whose address is passed to a sync/atomic
//     function (atomic.LoadUint64(&x.f), atomic.AddInt32(&x.f, 1), ...)
//     anywhere in the package is atomic everywhere. Every other plain
//     read or write of that field is reported.
//
//   - Typed fields (atomic.Uint64, atomic.Int32, atomic.Bool,
//     atomic.Pointer, atomic.Value, ...): access must go through the
//     type's methods. Assigning to the field or copying its value out
//     smuggles a plain, unsynchronized memory access past the API (and
//     a copy also forks the variable), so both are reported.
//
// The analysis is package-wide but field-identity based, so accesses
// through any path (x.f, p.s[i].f) to the same field declaration are
// correlated.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "fields accessed via sync/atomic must never be read or written plainly",
	Run:  runAtomicField,
}

// atomicFuncs is the sync/atomic free-function API operating on plain
// integer/pointer fields via their address.
var atomicFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
	"AndInt32": true, "AndInt64": true, "AndUint32": true, "AndUint64": true, "AndUintptr": true,
	"OrInt32": true, "OrInt64": true, "OrUint32": true, "OrUint64": true, "OrUintptr": true,
}

func runAtomicField(pass *Pass) error {
	// Pass 1: find old-API atomic fields — fields whose address feeds a
	// sync/atomic call — and remember those sanctioned &x.f sites.
	atomicByAddr := map[*types.Var]token.Pos{} // field -> first atomic-use pos
	sanctioned := map[ast.Expr]bool{}          // the &x.f argument expressions
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !atomicFuncs[fn.Name()] {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			addr, ok := unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			sel, ok := unparen(addr.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fld := fieldVarOf(pass, sel)
			if fld == nil {
				return true
			}
			if _, seen := atomicByAddr[fld]; !seen {
				atomicByAddr[fld] = call.Pos()
			}
			sanctioned[sel] = true
			return true
		})
	}

	// Pass 2: audit every field selector in the package.
	for _, f := range pass.Files {
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fld := fieldVarOf(pass, sel)
			if fld == nil {
				return true
			}
			if _, isAtomic := atomicByAddr[fld]; isAtomic && !sanctioned[sel] {
				pass.Reportf(sel.Pos(), "field %s is accessed via sync/atomic elsewhere in this package; plain access races with it",
					fld.Name())
				return true
			}
			if tname := atomicTypeName(fld.Type()); tname != "" {
				if bad := plainTypedAtomicUse(parents, sel); bad != "" {
					pass.Reportf(sel.Pos(), "%s field %s: %s bypasses the atomic API", tname, fld.Name(), bad)
				}
			}
			return true
		})
	}
	return nil
}

// fieldVarOf resolves sel to the struct field it selects, or nil.
func fieldVarOf(pass *Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var)
}

// atomicTypeName returns "atomic.Uint64" etc. when t is one of the
// typed sync/atomic wrappers, or "".
func atomicTypeName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		// atomic.Pointer[T] instantiations carry the origin's name.
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return ""
	}
	switch obj.Name() {
	case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
		return "sync/atomic." + obj.Name()
	}
	return ""
}

// plainTypedAtomicUse classifies how a typed-atomic field selector is
// used; a non-empty return describes a plain (racy) use. Legal uses:
// method calls (x.f.Load()), taking the address (&x.f, pointer
// receivers resolve through this too), and appearing as the operand of
// a further selection (x.f.v never occurs outside sync/atomic itself).
func plainTypedAtomicUse(parents parentMap, sel *ast.SelectorExpr) string {
	parent := parents[sel]
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = parents[p]
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// x.f.Load() — the method selection; or a deeper field path
		// where sel is the X (x.f in x.f.y — only methods exist, fine).
		return ""
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return "" // &x.f: address passed on, API preserved
		}
		return "value read"
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if unparen(lhs) == sel {
				return "plain assignment"
			}
		}
		return "value copy"
	case *ast.ValueSpec:
		return "value copy"
	case *ast.CallExpr:
		// Argument position (a method call would have sel under a
		// SelectorExpr, handled above): copies the atomic by value.
		return "value copy"
	case *ast.BinaryExpr:
		return "plain comparison"
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.ReturnStmt:
		return "value copy"
	case *ast.RangeStmt:
		if p.X == sel {
			return "value copy"
		}
	}
	return ""
}
