package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockCheck returns the mutex-hygiene analyzer. Every mu.Lock()/RLock()
// must be released in the acquiring function, either by a defer or by an
// Unlock on every return path; a second Lock of a held mutex and an
// RLock→Lock upgrade are self-deadlocks. Functions that hand a held lock
// to their caller (or release one the caller acquired) are the exception
// and must say so with //lint:ignore lockcheck <reason>. Copies of
// mutex-bearing values are go vet's copylocks pass, not this analyzer's.
func LockCheck() *Analyzer {
	a := &Analyzer{
		Name: "lockcheck",
		Doc: "require every Lock/RLock to be paired with an Unlock via defer or " +
			"on all return paths of the acquiring function, and flag re-locking " +
			"a held mutex or upgrading an RLock to a Lock (mutex copies are " +
			"go vet's copylocks)",
	}
	a.Run = runLockCheck
	return a
}

func runLockCheck(pass *Pass) {
	lc := &lockChecker{pass: pass}
	for _, f := range pass.Pkg.Files {
		// Declarations and function literals get the same body analysis,
		// each with its own state.
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					lc.checkBody(fn.Body)
				}
			case *ast.FuncLit:
				lc.checkBody(fn.Body)
			}
			return true
		})
	}
}

type lockChecker struct {
	pass *Pass
}

// lockOpKind classifies the four sync (R)Lock/(R)Unlock methods.
type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
	opRLock
	opRUnlock
	opTryLock
)

// lockOp matches a call like x.mu.Lock() where the method genuinely comes
// from package sync (directly or via embedding), returning a stable key
// for the lock expression. ok is false for anything else.
func (lc *lockChecker) lockOp(call *ast.CallExpr) (key string, kind lockOpKind, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock":
		kind = opLock
	case "Unlock":
		kind = opUnlock
	case "RLock":
		kind = opRLock
	case "RUnlock":
		kind = opRUnlock
	case "TryLock", "TryRLock":
		kind = opTryLock
	default:
		return "", 0, false
	}
	selection, found := lc.pass.Pkg.Info.Selections[sel]
	if !found {
		// Unresolved (type error) or package-qualified: not a method call.
		return "", 0, false
	}
	obj := selection.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", 0, false
	}
	key = types.ExprString(sel.X)
	if kind == opRLock || kind == opRUnlock {
		key += "/R"
	}
	return key, kind, true
}

// lockState is the abstract state of the pairing analysis: which lock keys
// are held, which have a pending deferred release, and which are managed
// by the caller (first seen being unlocked, a documented handoff pattern —
// those keys are exempt in this function).
type lockState struct {
	held     map[string]token.Pos
	deferred map[string]bool
	external map[string]bool
}

func newLockState() *lockState {
	return &lockState{
		held:     map[string]token.Pos{},
		deferred: map[string]bool{},
		external: map[string]bool{},
	}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	for k := range s.external {
		c.external[k] = true
	}
	return c
}

// lockLattice plugs the pairing analysis into the shared dataflow
// framework (cfg.go + dataflow.go): a lock counts as held only if held on
// every path into a point (Join intersects), while defers and
// caller-managed marks persist if any path set them (Join unions).
type lockLattice struct {
	lc *lockChecker
}

func (l *lockLattice) Entry() Fact       { return newLockState() }
func (l *lockLattice) Clone(f Fact) Fact { return f.(*lockState).clone() }

func (l *lockLattice) Transfer(n ast.Node, f Fact) Fact {
	st := f.(*lockState)
	switch s := n.(type) {
	case *ast.DeferStmt:
		l.lc.applyDefer(s, st)
	case *ast.GoStmt:
		// The spawned goroutine has its own discipline; literals are
		// analysed separately.
	default:
		forEachCall(n, func(call *ast.CallExpr) { l.lc.applyCall(call, st) })
	}
	return st
}

func (l *lockLattice) Join(a, b Fact) Fact {
	x, y := a.(*lockState), b.(*lockState)
	out := newLockState()
	for k, pos := range x.held {
		if _, ok := y.held[k]; ok {
			out.held[k] = pos
		}
	}
	for k := range x.deferred {
		out.deferred[k] = true
	}
	for k := range y.deferred {
		out.deferred[k] = true
	}
	for k := range x.external {
		out.external[k] = true
	}
	for k := range y.external {
		out.external[k] = true
	}
	return out
}

func (l *lockLattice) Equal(a, b Fact) bool {
	x, y := a.(*lockState), b.(*lockState)
	if len(x.held) != len(y.held) || len(x.deferred) != len(y.deferred) || len(x.external) != len(y.external) {
		return false
	}
	for k, pos := range x.held {
		if y.held[k] != pos {
			return false
		}
	}
	for k := range x.deferred {
		if !y.deferred[k] {
			return false
		}
	}
	for k := range x.external {
		if !y.external[k] {
			return false
		}
	}
	return true
}

// forEachCall visits every call expression inside n in preorder, without
// descending into nested function literals (they are analysed separately).
func forEachCall(n ast.Node, fn func(*ast.CallExpr)) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn(c)
		}
		return true
	})
}

// checkBody runs the pairing analysis over one function body on the shared
// CFG/dataflow core. Nested function literals are skipped here;
// runLockCheck analyses them separately with their own state.
func (lc *lockChecker) checkBody(body *ast.BlockStmt) {
	g := BuildCFG(body, lc.pass.Pkg.Info)
	lat := &lockLattice{lc: lc}
	in := Forward(g, lat)

	reported := map[token.Pos]bool{}
	leak := func(s *lockState, where string) {
		for k, pos := range s.held {
			if s.deferred[k] || s.external[k] || reported[pos] {
				continue
			}
			reported[pos] = true
			lc.pass.Reportf(pos,
				"%s is not released %s; unlock on every path or defer the unlock (use //lint:ignore lockcheck for intentional handoff)",
				lockName(k), where)
		}
	}
	Walk(g, lat, in,
		func(n ast.Node, before Fact) {
			st := before.(*lockState)
			if _, ok := n.(*ast.ReturnStmt); ok {
				leak(st, "on a return path")
				return
			}
			if _, ok := n.(*ast.DeferStmt); ok {
				return
			}
			if _, ok := n.(*ast.GoStmt); ok {
				return
			}
			// Deadlock reports need the state *before* the call; the
			// fixpoint has converged, so this fires exactly once per site.
			cur := st.clone()
			forEachCall(n, func(call *ast.CallExpr) {
				key, kind, ok := lc.lockOp(call)
				if ok && kind == opLock && !cur.external[key] {
					if _, already := cur.held[key]; already {
						lc.pass.Reportf(call.Pos(), "%s is already held here; this Lock deadlocks", lockName(key))
					}
					if _, read := cur.held[key+"/R"]; read && !cur.external[key+"/R"] {
						lc.pass.Reportf(call.Pos(),
							"%s is still held here; upgrading an RLock to a Lock deadlocks with concurrent readers — release the RLock first",
							lockName(key+"/R"))
					}
				}
				lc.applyCall(call, cur)
			})
		},
		func(b *Block, out Fact) {
			if g.FallsOff(b) {
				leak(out.(*lockState), "by the end of the function")
			}
		})
}

// lockName renders a state key back into the source-level call.
func lockName(key string) string {
	if k, ok := strings.CutSuffix(key, "/R"); ok {
		return k + ".RLock()"
	}
	return key + ".Lock()"
}

// applyDefer records deferred releases: a direct defer mu.Unlock(), or a
// deferred function literal that releases somewhere in its body.
func (lc *lockChecker) applyDefer(s *ast.DeferStmt, st *lockState) {
	if key, kind, ok := lc.lockOp(s.Call); ok && (kind == opUnlock || kind == opRUnlock) {
		st.deferred[key] = true
		return
	}
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, kind, ok := lc.lockOp(call); ok && (kind == opUnlock || kind == opRUnlock) {
					st.deferred[key] = true
				}
			}
			return true
		})
	}
}

// applyCall updates the state for a (potential) lock operation. Reporting
// happens in checkBody's Walk pass, never here: this runs repeatedly
// during the fixpoint iteration.
func (lc *lockChecker) applyCall(call *ast.CallExpr, st *lockState) {
	key, kind, ok := lc.lockOp(call)
	if !ok {
		return
	}
	switch kind {
	case opLock, opRLock:
		st.held[key] = call.Pos()
	case opUnlock, opRUnlock:
		if _, ok := st.held[key]; !ok && !st.deferred[key] {
			// Releasing a lock this function never took: the caller
			// manages it. Exempt the key for the rest of the walk.
			st.external[key] = true
			return
		}
		delete(st.held, key)
	case opTryLock:
		// Conditional acquisition; exempt the key rather than guess.
		st.external[key] = true
	}
}
