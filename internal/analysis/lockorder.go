package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces the package's declared mutex acquisition order and
// the no-blocking-under-lock rule, the invariants behind the engine's
// ranked nesting (engine try-lock, arena, peer, rings) and every
// transport's agent/poster split. Runtime detection of either bug is miserable: an inverted
// acquisition deadlocks only under the exact interleaving that crosses
// the two paths, and a blocking wait under a lock shows up as tail
// latency, not a failure.
//
// Every sync.Mutex, sync.RWMutex, and sync.Locker declared as a struct
// field or package-level variable must be classified with a
//
//	//photon:lock <name> <rank>
//
// directive on (or immediately above) its declaration line; an
// unclassified declaration is itself reported. The rank declares the
// package's partial acquisition order: a lock may only be acquired
// while holding locks of strictly lower rank. Within each function the
// analyzer tracks the held lock set syntactically — Lock/RLock acquire,
// Unlock/RUnlock release, the `if !mu.TryLock() { return }`,
// `if !mu.TryLock() { ...; mu.Lock() }` and `if mu.TryLock() { ... }`
// guard idioms acquire on the held branch, and loop bodies are walked
// twice so a net acquisition is checked against the next iteration's.
// The held set then propagates through the intra-package call graph
// (see callgraph.go): each function's transitive summary records which
// classes it may acquire and whether it may block, and every call made
// while holding a lock is checked against the callee's summary.
//
// A struct field may carry
//
//	//photon:reenters <func>
//
// naming a function or method of the package that a call through the
// field may run before it returns — a handler registered with another
// package, as a simulated NIC's frame handler is with the fabric. Every
// method call on that field is then charged with <func>'s summary, as
// if it called <func> directly.
//
// Reported while any classified lock is held:
//
//   - acquiring (directly or via a callee) a class of lower rank —
//     the declared order inverted;
//   - acquiring a class of equal rank — same-rank nesting (two shard
//     engines, two peers) is only legal under a documented convention
//     such as ascending-index order, so it must carry an explicit
//     //photon:allow justification;
//   - blocking: channel send/receive, select without a default,
//     sync.WaitGroup.Wait, sync.Cond.Wait, or time.Sleep, directly or
//     via a callee. Wakeups (non-blocking sends in a select with
//     default) pass.
//
// Other calls through interfaces and function values are opaque, local
// mutex variables are untracked, and function literal bodies run at
// invocation time, not where they are written — all three are outside
// the summary, by design: photonvet is a vet, and the classified
// struct-field locks are where the cross-subsystem order lives.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforces //photon:lock rank order and no blocking waits under classified locks",
	Run:  runLockOrder,
}

// lockClass is one declared lock class.
type lockClass struct {
	name string
	rank int
}

// heldLock is one acquisition on the walker's held stack.
type heldLock struct {
	cls *lockClass
	pos token.Pos
}

// lockSummary is a function's transitive lock behavior.
type lockSummary struct {
	acquires map[*lockClass]bool
	blocks   bool
}

// lockOrderState carries one package's lockorder run.
type lockOrderState struct {
	pass      *Pass
	graph     *callGraph
	classes   map[string]*lockClass
	byObj     map[types.Object]*lockClass
	summaries map[*types.Func]*lockSummary
	reported  map[token.Pos]map[string]bool
	reentry   map[types.Object]*types.Func // field -> the function a call through it may run
}

func runLockOrder(pass *Pass) error {
	lo := &lockOrderState{
		pass:      pass,
		classes:   map[string]*lockClass{},
		byObj:     map[types.Object]*lockClass{},
		summaries: map[*types.Func]*lockSummary{},
		reported:  map[token.Pos]map[string]bool{},
		reentry:   map[types.Object]*types.Func{},
	}
	lo.collectClasses()
	lo.graph = buildCallGraph(pass)
	lo.collectReentry()
	lo.buildSummaries()
	for _, node := range lo.graph.nodes {
		w := &lockWalker{lo: lo}
		w.stmts(node.decl.Body.List, nil)
	}
	return nil
}

// report deduplicates (the two-pass loop walk revisits statements) and
// emits one diagnostic.
func (lo *lockOrderState) report(pos token.Pos, format string, args ...any) {
	msg := sprintf(format, args...)
	if lo.reported[pos][msg] {
		return
	}
	if lo.reported[pos] == nil {
		lo.reported[pos] = map[string]bool{}
	}
	lo.reported[pos][msg] = true
	lo.pass.Reportf(pos, "%s", msg)
}

// ---------------------------------------------------------------------
// Class collection
// ---------------------------------------------------------------------

// lockableType reports whether t declares a classifiable lock: a sync
// Mutex/RWMutex/Locker, possibly behind a pointer, slice, or array.
func lockableType(t types.Type) (kind string, ok bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		}
		break
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "Locker":
		return "sync." + obj.Name(), true
	}
	return "", false
}

// classFor interns the lock class declared by l.
func (lo *lockOrderState) classFor(l *lockDecl) *lockClass {
	if c, ok := lo.classes[l.name]; ok {
		return c
	}
	c := &lockClass{name: l.name, rank: l.rank}
	lo.classes[l.name] = c
	return c
}

// collectClasses maps every classifiable declaration to its
// //photon:lock class, reporting unclassified declarations.
func (lo *lockOrderState) collectClasses() {
	pass := lo.pass
	bind := func(names []*ast.Ident, pos token.Pos, kind string) {
		p := pass.Fset.Position(pos)
		decl := pass.Directives.LockAt(p.Filename, p.Line)
		if decl == nil {
			lo.report(pos, "%s %s is not classified; add //photon:lock <name> <rank> to declare its acquisition rank", kind, names[0].Name)
			return
		}
		cls := lo.classFor(decl)
		for _, name := range names {
			if obj := pass.ObjectOf(name); obj != nil {
				lo.byObj[obj] = cls
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return false // local mutexes are untracked
			case *ast.StructType:
				for _, field := range n.Fields.List {
					t := pass.TypeOf(field.Type)
					if t == nil || len(field.Names) == 0 {
						continue
					}
					if kind, ok := lockableType(t); ok {
						bind(field.Names, field.Pos(), kind+" field")
					}
				}
			case *ast.GenDecl:
				if n.Tok != token.VAR {
					return true
				}
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Names) == 0 {
						continue
					}
					obj := pass.ObjectOf(vs.Names[0])
					if obj == nil || !isPackageLevel(obj) {
						continue
					}
					if kind, ok := lockableType(obj.Type()); ok {
						bind(vs.Names, vs.Pos(), kind+" variable")
					}
				}
			}
			return true
		})
	}
}

// collectReentry binds every //photon:reenters field to the function
// it names and adds a call-graph edge from each call through the field
// to that function.
func (lo *lockOrderState) collectReentry() {
	pass := lo.pass
	bound := map[*reentersDecl]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				p := pass.Fset.Position(field.Pos())
				r := pass.Directives.ReentersAt(p.Filename, p.Line)
				if r == nil {
					continue
				}
				bound[r] = true
				var target *types.Func
				for fn := range lo.graph.nodes {
					if fn.Name() != r.fn {
						continue
					}
					if target != nil {
						lo.report(r.pos, "//photon:reenters %s is ambiguous: more than one function of the package has that name", r.fn)
					}
					target = fn
				}
				if target == nil {
					lo.report(r.pos, "//photon:reenters names %s, which is no function of this package", r.fn)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.ObjectOf(name); obj != nil {
						lo.reentry[obj] = target
					}
				}
			}
			return true
		})
	}
	for _, r := range pass.Directives.reenters {
		if !bound[r] {
			lo.report(r.pos, "//photon:reenters must sit on or just above a struct field")
		}
	}
	if len(lo.reentry) == 0 {
		return
	}
	for _, node := range lo.graph.nodes {
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				return false // runs on its own stack
			case *ast.CallExpr:
				if target := lo.reentryTarget(n); target != nil {
					node.calls = append(node.calls, callSite{call: n, callee: target})
				}
			}
			return true
		})
	}
}

// reentryTarget returns the function a method call through a
// //photon:reenters field may run, or nil.
func (lo *lockOrderState) reentryTarget(call *ast.CallExpr) *types.Func {
	if len(lo.reentry) == 0 {
		return nil
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	field, ok := unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if obj := lo.pass.ObjectOf(field.Sel); obj != nil {
		return lo.reentry[obj]
	}
	return nil
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// ---------------------------------------------------------------------
// Acquisition / release / blocking classification
// ---------------------------------------------------------------------

// lockMethod classifies call as an operation on a classified lock.
// verb is "Lock", "RLock", "TryLock", "TryRLock", "Unlock", or
// "RUnlock"; cls is nil for unclassified (local) locks.
func (lo *lockOrderState) lockMethod(call *ast.CallExpr) (verb string, cls *lockClass) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", nil
	}
	fn := calleeFunc(lo.pass.TypesInfo, call)
	if fn == nil {
		return "", nil
	}
	if !methodOnType(fn, "sync", "Mutex") && !methodOnType(fn, "sync", "RWMutex") &&
		!methodOnType(fn, "sync", "Locker") && !lockerInterfaceMethod(fn) {
		return "", nil
	}
	return sel.Sel.Name, lo.classOfExpr(sel.X)
}

// lockerInterfaceMethod reports whether fn is sync.Locker's Lock or
// Unlock (interface methods have no concrete receiver named type).
func lockerInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Locker" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// classOfExpr resolves the lock class of the receiver expression:
// a classified field (x.mu, x.y.mu, xs[i].mu), slice element
// (mus[i]), or package-level variable.
func (lo *lockOrderState) classOfExpr(e ast.Expr) *lockClass {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := lo.pass.ObjectOf(e); obj != nil {
			return lo.byObj[obj]
		}
	case *ast.SelectorExpr:
		if obj := lo.pass.ObjectOf(e.Sel); obj != nil {
			return lo.byObj[obj]
		}
	case *ast.IndexExpr:
		return lo.classOfExpr(e.X)
	case *ast.StarExpr:
		return lo.classOfExpr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return lo.classOfExpr(e.X)
		}
	}
	return nil
}

// blockingCall classifies call as an always-blocking stdlib wait, or
// returns "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch {
	case fn.Name() == "Wait" && methodOnType(fn, "sync", "WaitGroup"):
		return "sync.WaitGroup.Wait"
	case fn.Name() == "Wait" && methodOnType(fn, "sync", "Cond"):
		return "sync.Cond.Wait"
	case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	}
	return ""
}

// selectHasDefault reports whether sel carries a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Function summaries
// ---------------------------------------------------------------------

// buildSummaries computes each function's direct lock behavior and
// propagates it over the call graph to a fixpoint.
func (lo *lockOrderState) buildSummaries() {
	for fn, node := range lo.graph.nodes {
		lo.summaries[fn] = lo.directSummary(node.decl.Body)
	}
	lo.graph.fixpoint(func(caller, callee *types.Func) bool {
		cs, ce := lo.summaries[caller], lo.summaries[callee]
		changed := false
		for cls := range ce.acquires {
			if !cs.acquires[cls] {
				cs.acquires[cls] = true
				changed = true
			}
		}
		if ce.blocks && !cs.blocks {
			cs.blocks = true
			changed = true
		}
		return changed
	})
}

// directSummary scans one body (skipping goroutines and function
// literals) for its own acquisitions and blocking operations.
func (lo *lockOrderState) directSummary(body ast.Node) *lockSummary {
	s := &lockSummary{acquires: map[*lockClass]bool{}}
	var walk func(n ast.Node, nonBlocking bool)
	walk = func(n ast.Node, nonBlocking bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.SelectStmt:
				inner := nonBlocking || selectHasDefault(m)
				if !inner {
					s.blocks = true
				}
				for _, c := range m.Body.List {
					walk(c, inner)
				}
				return false
			case *ast.SendStmt:
				if !nonBlocking {
					s.blocks = true
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW && !nonBlocking {
					s.blocks = true
				}
			case *ast.CallExpr:
				switch verb, cls := lo.lockMethod(m); verb {
				case "Lock", "RLock", "TryLock", "TryRLock":
					if cls != nil {
						s.acquires[cls] = true
					}
				case "":
					if blockingCall(lo.pass.TypesInfo, m) != "" {
						s.blocks = true
					}
				}
			}
			return true
		})
	}
	walk(body, false)
	return s
}

// ---------------------------------------------------------------------
// Held-set walk
// ---------------------------------------------------------------------

// lockWalker tracks the held lock set through one function body.
type lockWalker struct {
	lo *lockOrderState
}

// stmts folds a statement list through the walker.
func (w *lockWalker) stmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

// copyHeld snapshots the held stack so branch walks cannot alias it.
func copyHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// stmt walks one statement, returning the held set after it.
func (w *lockWalker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		return w.ifStmt(s, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			held = w.scan(s.Cond, held)
		}
		body := func(h []heldLock) []heldLock {
			h = w.stmts(s.Body.List, h)
			if s.Post != nil {
				h = w.stmt(s.Post, h)
			}
			return h
		}
		return w.loop(body, held)
	case *ast.RangeStmt:
		held = w.scan(s.X, held)
		return w.loop(func(h []heldLock) []heldLock { return w.stmts(s.Body.List, h) }, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			held = w.scan(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h := copyHeld(held)
				for _, e := range cc.List {
					h = w.scan(e, h)
				}
				w.stmts(cc.Body, h)
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
		return held
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			w.lo.report(s.Pos(), "blocks on a select with no default while holding %s", describeHeld(held))
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
		return held
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			held = w.scan(a, held)
		}
		return held
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end — the
		// dominant idiom — so it leaves the tracked set unchanged.
		// Other deferred calls are checked against the current set.
		if verb, _ := w.lo.lockMethod(s.Call); verb == "Unlock" || verb == "RUnlock" {
			return held
		}
		return w.scan(s.Call, held)
	default:
		// Simple statements: assignments, expression statements, sends,
		// declarations, returns, branches.
		return w.scan(s, held)
	}
}

// loop walks a loop body from the current held set, then — when the
// body made a net change to it — walks it once more so an acquisition
// in iteration N is checked against the locks still held entering
// iteration N+1 (the ascending-index multi-lock idiom surfaces here).
func (w *lockWalker) loop(body func([]heldLock) []heldLock, held []heldLock) []heldLock {
	out := body(copyHeld(held))
	if !sameHeld(out, held) {
		body(copyHeld(out))
	}
	return out
}

func sameHeld(a, b []heldLock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].cls != b[i].cls {
			return false
		}
	}
	return true
}

// ifStmt handles the TryLock guard idioms and plain branches.
func (w *lockWalker) ifStmt(s *ast.IfStmt, held []heldLock) []heldLock {
	if s.Init != nil {
		held = w.stmt(s.Init, held)
	}
	// if mu.TryLock() { ... }: held inside the then-branch only.
	if call, ok := unparen(s.Cond).(*ast.CallExpr); ok {
		if verb, cls := w.lo.lockMethod(call); (verb == "TryLock" || verb == "TryRLock") && cls != nil {
			w.stmts(s.Body.List, w.acquire(cls, call.Pos(), copyHeld(held)))
			if s.Else != nil {
				w.stmt(s.Else, copyHeld(held))
			}
			return held
		}
	}
	// if !mu.TryLock() { return/continue/break }: held afterwards.
	if not, ok := unparen(s.Cond).(*ast.UnaryExpr); ok && not.Op == token.NOT {
		if call, ok := unparen(not.X).(*ast.CallExpr); ok {
			if verb, cls := w.lo.lockMethod(call); (verb == "TryLock" || verb == "TryRLock") && cls != nil {
				w.stmts(s.Body.List, copyHeld(held))
				if s.Else != nil {
					w.stmt(s.Else, copyHeld(held))
				}
				if terminates(s.Body) || w.endsAcquiring(s.Body, cls) {
					return w.acquire(cls, call.Pos(), held)
				}
				return held
			}
		}
	}
	held = w.scan(s.Cond, held)
	w.stmts(s.Body.List, copyHeld(held))
	if s.Else != nil {
		w.stmt(s.Else, copyHeld(held))
	}
	// Branch-local lock effects do not survive the if: the analyzer
	// assumes balanced branches (the TryLock idioms above are the
	// deliberate exceptions).
	return held
}

// endsAcquiring reports whether block's last statement acquires cls —
// the `if !mu.TryLock() { if try { return }; mu.Lock() }` idiom, after
// which the lock is held either way.
func (w *lockWalker) endsAcquiring(block *ast.BlockStmt, cls *lockClass) bool {
	if len(block.List) == 0 {
		return false
	}
	last, ok := block.List[len(block.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := unparen(last.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	verb, c := w.lo.lockMethod(call)
	return (verb == "Lock" || verb == "RLock") && c == cls
}

// terminates reports whether block certainly leaves the enclosing
// statement list (return, branch, or panic as its last statement).
func terminates(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// scan walks a simple statement or expression in pre-order, applying
// acquisitions, releases, blocking checks, and callee-summary checks.
func (w *lockWalker) scan(n ast.Node, held []heldLock) []heldLock {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if len(held) > 0 {
				w.lo.report(m.Pos(), "blocks on a channel send while holding %s", describeHeld(held))
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && len(held) > 0 {
				w.lo.report(m.Pos(), "blocks on a channel receive while holding %s", describeHeld(held))
			}
		case *ast.CallExpr:
			held = w.call(m, held)
			return true
		}
		return true
	})
	return held
}

// call applies one call expression to the held set.
func (w *lockWalker) call(call *ast.CallExpr, held []heldLock) []heldLock {
	verb, cls := w.lo.lockMethod(call)
	switch verb {
	case "Lock", "RLock":
		if cls != nil {
			return w.acquire(cls, call.Pos(), held)
		}
		return held
	case "Unlock", "RUnlock":
		if cls != nil {
			return release(cls, held)
		}
		return held
	case "TryLock", "TryRLock":
		// Outside the if-guard idioms the result is untracked.
		return held
	}
	if name := blockingCall(w.lo.pass.TypesInfo, call); name != "" && len(held) > 0 {
		// Cond.Wait with exactly one lock held is the condition
		// variable's required usage: Wait releases the (held) mutex
		// while parked. With two or more held, the outer locks stay
		// held across the park — that is the hazard.
		if name == "sync.Cond.Wait" && len(held) == 1 {
			return held
		}
		w.lo.report(call.Pos(), "calls %s while holding %s", name, describeHeld(held))
		return held
	}
	callee := calleeFunc(w.lo.pass.TypesInfo, call)
	if callee == nil || len(held) == 0 {
		return held
	}
	name := callee.Name()
	if target := w.lo.reentryTarget(call); target != nil {
		name = sprintf("%s (which may run %s)", name, target.Name())
		callee = target
	}
	summ, ok := w.lo.summaries[callee]
	if !ok {
		return held
	}
	for _, h := range held {
		for acq := range summ.acquires {
			switch {
			case acq.rank < h.cls.rank:
				w.lo.report(call.Pos(), "call to %s may acquire %s (rank %d) while holding %s (rank %d): inverts the declared lock order",
					name, acq.name, acq.rank, h.cls.name, h.cls.rank)
			case acq.rank == h.cls.rank:
				w.lo.report(call.Pos(), "call to %s may acquire %s (rank %d) while holding %s (rank %d): same-rank nesting needs its own //photon:allow",
					name, acq.name, acq.rank, h.cls.name, h.cls.rank)
			}
		}
	}
	if summ.blocks {
		w.lo.report(call.Pos(), "call to %s may block while holding %s", name, describeHeld(held))
	}
	return held
}

// acquire checks one acquisition against every held lock and pushes it.
func (w *lockWalker) acquire(cls *lockClass, pos token.Pos, held []heldLock) []heldLock {
	for _, h := range held {
		switch {
		case cls.rank < h.cls.rank:
			w.lo.report(pos, "acquires %s (rank %d) while holding %s (rank %d): inverts the declared lock order",
				cls.name, cls.rank, h.cls.name, h.cls.rank)
		case cls.rank == h.cls.rank:
			w.lo.report(pos, "acquires %s (rank %d) while already holding %s (rank %d): same-rank nesting needs an explicit //photon:allow",
				cls.name, cls.rank, h.cls.name, h.cls.rank)
		}
	}
	return append(held, heldLock{cls: cls, pos: pos})
}

// release pops the most recent acquisition of cls.
func release(cls *lockClass, held []heldLock) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].cls == cls {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// describeHeld names the outermost held lock for diagnostics.
func describeHeld(held []heldLock) string {
	if len(held) == 0 {
		return "no lock"
	}
	h := held[len(held)-1]
	return sprintf("%s (rank %d)", h.cls.name, h.cls.rank)
}
