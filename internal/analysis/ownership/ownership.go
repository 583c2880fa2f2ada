// Package ownership enforces the pooled-buffer ownership contract on
// fabric.Frame and mem.TxChunk values (DESIGN.md §Zero-copy TX, §Fault
// injection): a pooled value acquired in a function must, on every path
// out of that function, be Released, Detached, or handed off (passed to
// a callee, stored, or returned); a released value must never be used
// again; Release must not run twice. Handing a frame to an mbuf with
// mem.Mbuf.Adopt is the one handoff the analyzer follows further: the
// mbuf releases the frame at its last Unref, so a Release after the
// Adopt is a double release.
//
// The analysis is intra-procedural and flow-sensitive over the AST:
// if/else and switch branches fork the tracking state and merge
// conservatively (divergent states silence further reports for that
// value), so the analyzer errs toward false negatives rather than
// false positives. The one class it deliberately nails is the leak the
// repository has fixed by hand twice: acquire a frame, take an early
// error return, and never release it.
package ownership

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ix/internal/analysis"
)

// Analyzer is the pooled-ownership invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "ownership",
	Doc: `tracks pooled fabric.Frame/mem.TxChunk values: use-after-Release, double Release, and early returns that leak an acquired value.
Acquisition sites are FramePool.Get and TxChunkPool.Alloc; obligations
are cleared by Release, Detach, a deferred Release, a handoff (call
argument, store, return, mbuf Adopt) — or an //ixvet:ignore(ownership)
with a documented reason. Releasing a frame after an mbuf adopted it is
a double release.`,
	Run: run,
}

// tracked pooled pointer types, matched by (package path tail, type
// name) so analysistest fixtures can stand in for the real packages.
var trackedTypes = map[[2]string]bool{
	{"fabric", "Frame"}: true,
	{"mem", "TxChunk"}:  true,
}

// acquireMethods are the pool methods whose results carry a release
// obligation.
var acquireMethods = map[string]bool{"Get": true, "Alloc": true}

type state uint8

const (
	stOwned    state = iota // acquired here; must release/detach/hand off
	stReleased              // Release ran; any further use is a bug
	stDeferred              // defer x.Release() pending; obligations met
	stDetached              // Detach ran; obligations met, uses fine
	stEscaped               // handed off; obligations transferred
	stAdopted               // adopted by an mbuf, which releases it; uses fine
	stMuted                 // divergent merge or already reported
)

type track struct {
	st     state
	acqPos token.Pos
}

type env map[*types.Var]*track

func (e env) clone() env {
	c := make(env, len(e))
	for k, v := range e {
		cp := *v
		c[k] = &cp
	}
	return c
}

func isTrackedPtr(t types.Type) bool {
	return trackedTypes[ptrName(t)]
}

// ptrName returns (package path tail, type name) of a pointer to a named
// type, and two empty strings for anything else.
func ptrName(t types.Type) [2]string {
	p, ok := t.(*types.Pointer)
	if !ok {
		return [2]string{}
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return [2]string{}
	}
	tail := n.Obj().Pkg().Path()
	if i := strings.LastIndexByte(tail, '/'); i >= 0 {
		tail = tail[i+1:]
	}
	return [2]string{tail, n.Obj().Name()}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// goto makes the structured walk unsound; skip such
			// functions entirely (none exist in this repository).
			if hasGoto(fn.Body) {
				continue
			}
			w := &walker{pass: pass}
			ev := env{}
			if !w.stmts(fn.Body.List, ev) {
				// Fell off the end: same obligations as a return.
				w.leakCheck(fn.Body.Rbrace, ev)
			}
		}
	}
	return nil
}

func hasGoto(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.GOTO {
			found = true
		}
		return !found
	})
	return found
}

type walker struct {
	pass *analysis.Pass
}

func (w *walker) varOf(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := w.pass.TypesInfo.ObjectOf(id).(*types.Var)
	if v == nil || !isTrackedPtr(v.Type()) {
		return nil
	}
	return v
}

// stmts runs the statement list under ev, reporting as it goes, and
// returns whether the list definitely terminates (return/panic), in
// which case its final state must not merge into the fall-through path.
func (w *walker) stmts(list []ast.Stmt, ev env) bool {
	for _, s := range list {
		if w.stmt(s, ev) {
			return true
		}
	}
	return false
}

func (w *walker) stmt(s ast.Stmt, ev env) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.ExprStmt:
		w.exprStmtCall(s.X, ev)
		return false
	case *ast.AssignStmt:
		w.assign(s, ev)
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					w.scan(val, ev, true)
				}
			}
		}
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scan(r, ev, true)
		}
		w.leakCheck(s.Pos(), ev)
		return true
	case *ast.DeferStmt:
		if v, m := w.receiverMethod(s.Call, ev); v != nil {
			switch m {
			case "Release":
				w.onDeferRelease(s.Call.Pos(), ev, v)
			case "Detach":
				ev[v].st = stDetached
			default:
				w.use(s.Call.Pos(), ev, v)
			}
			w.scanArgs(s.Call, ev)
			return false
		}
		w.scan(s.Call, ev, true)
		return false
	case *ast.GoStmt:
		w.scan(s.Call, ev, true)
		return false
	case *ast.SendStmt:
		w.scan(s.Chan, ev, false)
		w.scan(s.Value, ev, true)
		return false
	case *ast.IncDecStmt:
		w.scan(s.X, ev, false)
		return false
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, ev)
		}
		w.scan(s.Cond, ev, false)
		thenEv := ev.clone()
		elseEv := ev.clone()
		// Nil refinement: under `if x == nil` the then-branch provably
		// holds no buffer (an exhausted pool returns nil), so x carries
		// no obligation there; symmetrically for `x != nil`.
		if v, eq := w.nilCheck(s.Cond); v != nil {
			if eq {
				delete(thenEv, v)
			} else {
				delete(elseEv, v)
			}
		}
		thenTerm := w.stmts(s.Body.List, thenEv)
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseEv)
		}
		w.merge(ev, thenEv, thenTerm, elseEv, elseTerm)
		return thenTerm && elseTerm
	case *ast.BlockStmt:
		return w.stmts(s.List, ev)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, ev)
		}
		if s.Tag != nil {
			w.scan(s.Tag, ev, false)
		}
		w.cases(s.Body, ev)
		return false
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, ev)
		}
		w.cases(s.Body, ev)
		return false
	case *ast.SelectStmt:
		w.cases(s.Body, ev)
		return false
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, ev)
		}
		if s.Cond != nil {
			w.scan(s.Cond, ev, false)
		}
		body := ev.clone()
		term := w.stmts(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
		w.merge(ev, body, term, ev.clone(), false)
		return false
	case *ast.RangeStmt:
		w.scan(s.X, ev, false)
		body := ev.clone()
		// Range vars of tracked type (e.g. frames in a ring) carry no
		// acquisition obligation; leave them untracked.
		term := w.stmts(s.Body.List, body)
		w.merge(ev, body, term, ev.clone(), false)
		return false
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, ev)
	case *ast.BranchStmt, *ast.EmptyStmt:
		return false
	default:
		return false
	}
}

// cases forks the environment per case clause and merges everything.
func (w *walker) cases(body *ast.BlockStmt, ev env) {
	forks := []env{ev.clone()} // the no-case-taken world
	for _, cc := range body.List {
		var stmts []ast.Stmt
		switch cc := cc.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.scan(e, ev, false)
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				w.stmt(cc.Comm, ev)
			}
			stmts = cc.Body
		}
		fork := ev.clone()
		if !w.stmts(stmts, fork) {
			forks = append(forks, fork)
		}
	}
	// Merge all non-terminating forks pairwise into ev.
	for _, f := range forks {
		w.merge(ev, f, false, ev.clone(), false)
	}
}

// merge folds two branch outcomes back into ev. A terminated branch
// (ended in return) contributes nothing. Divergent states mute the
// value: no further reports, no leak obligation.
func (w *walker) merge(ev, a env, aTerm bool, b env, bTerm bool) {
	keys := make(map[*types.Var]bool)
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		av, bv := a[k], b[k]
		switch {
		case aTerm && bTerm:
			delete(ev, k)
		case aTerm:
			if bv != nil {
				ev[k] = bv
			} else {
				delete(ev, k)
			}
		case bTerm:
			if av != nil {
				ev[k] = av
			} else {
				delete(ev, k)
			}
		case av != nil && bv != nil && av.st == bv.st:
			ev[k] = av
		case av == nil && bv == nil:
			delete(ev, k)
		default:
			pos := token.NoPos
			if av != nil {
				pos = av.acqPos
			} else if bv != nil {
				pos = bv.acqPos
			}
			ev[k] = &track{st: stMuted, acqPos: pos}
		}
	}
}

// exprStmtCall handles a call in statement position.
func (w *walker) exprStmtCall(e ast.Expr, ev env) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		w.scan(e, ev, false)
		return
	}
	if v := w.adopted(call); v != nil {
		w.scan(call.Fun, ev, false)
		w.use(call.Args[0].Pos(), ev, v)
		if t := ev[v]; t == nil || t.st != stMuted {
			ev[v] = &track{st: stAdopted, acqPos: call.Args[0].Pos()}
		}
		return
	}
	if v, m := w.receiverMethod(call, ev); v != nil {
		t := ev[v]
		switch m {
		case "Release":
			switch t.st {
			case stReleased:
				w.pass.Reportf(call.Pos(), "double Release of pooled %s (previous Release already returned it to its pool)", v.Name())
				t.st = stMuted
			case stDeferred:
				w.pass.Reportf(call.Pos(), "%s.Release() runs again when the deferred Release fires: double release", v.Name())
				t.st = stMuted
			case stAdopted:
				w.pass.Reportf(call.Pos(), "Release of %s after an mbuf adopted it: the mbuf's last Unref releases it again (double release)", v.Name())
				t.st = stMuted
			case stMuted, stDetached:
				// no report: divergent history or detached no-op
			default:
				t.st = stReleased
			}
		case "Detach":
			if t.st == stReleased {
				w.pass.Reportf(call.Pos(), "use of %s after Release: Detach on a released value corrupts pool accounting", v.Name())
				t.st = stMuted
			} else if t.st != stMuted {
				t.st = stDetached
			}
		default:
			w.use(call.Pos(), ev, v)
		}
		w.scanArgs(call, ev)
		return
	}
	w.scan(call, ev, false)
}

// adopted matches `m.Adopt(x)` on a mem.Mbuf receiver, where x is a
// tracked variable, returning x.
func (w *walker) adopted(call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Adopt" || len(call.Args) != 1 {
		return nil
	}
	if ptrName(w.pass.TypesInfo.TypeOf(sel.X)) != [2]string{"mem", "Mbuf"} {
		return nil
	}
	return w.varOf(call.Args[0])
}

// receiverMethod matches `x.M(...)` where x is a tracked variable,
// returning (x, M). It also lazily begins tracking parameters and
// loads the first time Release/Detach runs on them, so use-after-
// release applies to values the function did not itself acquire.
func (w *walker) receiverMethod(call *ast.CallExpr, ev env) (*types.Var, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	v := w.varOf(sel.X)
	if v == nil {
		return nil, ""
	}
	if ev[v] == nil {
		// Untracked (parameter, field load): only start tracking at an
		// ownership-transition method; plain method calls stay free.
		isTransition := sel.Sel.Name == "Release" || sel.Sel.Name == "Detach"
		if !isTransition {
			return nil, ""
		}
		ev[v] = &track{st: stEscaped, acqPos: sel.X.Pos()}
	}
	return v, sel.Sel.Name
}

func (w *walker) onDeferRelease(pos token.Pos, ev env, v *types.Var) {
	t := ev[v]
	switch t.st {
	case stReleased:
		w.pass.Reportf(pos, "deferred Release of %s runs after an explicit Release: double release", v.Name())
		t.st = stMuted
	case stMuted:
	default:
		t.st = stDeferred
	}
}

// nilCheck matches `x == nil` / `x != nil` over a tracked variable,
// returning (x, true) for == and (x, false) for !=.
func (w *walker) nilCheck(cond ast.Expr) (*types.Var, bool) {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return nil, false
	}
	x, y := bin.X, bin.Y
	if w.isNil(x) {
		x, y = y, x
	}
	if !w.isNil(y) {
		return nil, false
	}
	if v := w.varOf(x); v != nil {
		return v, bin.Op == token.EQL
	}
	return nil, false
}

func (w *walker) isNil(e ast.Expr) bool {
	tv, ok := w.pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// use records a read of v, reporting if v was released.
func (w *walker) use(pos token.Pos, ev env, v *types.Var) {
	t := ev[v]
	if t == nil {
		return
	}
	if t.st == stReleased {
		w.pass.Reportf(pos, "use of pooled %s after Release: the buffer may already be recycled by its pool", v.Name())
		t.st = stMuted
	}
}

// scan walks an expression. Every mention of a tracked variable is a
// use; when escape is true (or the walk enters an escaping context:
// call argument, composite literal, address-of, alias assignment), a
// mention also clears the leak obligation.
func (w *walker) scan(e ast.Expr, ev env, escape bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if v := w.varOf(e); v != nil {
			w.use(e.Pos(), ev, v)
			if t := ev[v]; t != nil && escape && t.st == stOwned {
				t.st = stEscaped
			}
		}
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if v := w.varOf(sel.X); v != nil {
				// Receiver position: a use, not a handoff.
				w.use(sel.X.Pos(), ev, v)
			} else {
				w.scan(sel.X, ev, false)
			}
		} else {
			w.scan(e.Fun, ev, false)
		}
		w.scanArgs(e, ev)
	case *ast.SelectorExpr:
		// Field read x.Data: a use; the field value may alias the
		// buffer but the pointer itself is not handed off.
		w.scan(e.X, ev, escape)
	case *ast.UnaryExpr:
		w.scan(e.X, ev, true)
	case *ast.StarExpr:
		w.scan(e.X, ev, escape)
	case *ast.ParenExpr:
		w.scan(e.X, ev, escape)
	case *ast.BinaryExpr:
		// Comparisons (f == nil) are uses, never handoffs.
		w.scan(e.X, ev, false)
		w.scan(e.Y, ev, false)
	case *ast.IndexExpr:
		w.scan(e.X, ev, escape)
		w.scan(e.Index, ev, false)
	case *ast.SliceExpr:
		w.scan(e.X, ev, escape)
		w.scan(e.Low, ev, false)
		w.scan(e.High, ev, false)
		w.scan(e.Max, ev, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.scan(kv.Value, ev, true)
			} else {
				w.scan(el, ev, true)
			}
		}
	case *ast.TypeAssertExpr:
		w.scan(e.X, ev, escape)
	case *ast.FuncLit:
		// A closure capturing a tracked var takes over its lifetime.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v := w.varOf(id); v != nil {
					if t := ev[v]; t != nil && t.st == stOwned {
						t.st = stEscaped
					}
				}
			}
			return true
		})
	case *ast.KeyValueExpr:
		w.scan(e.Value, ev, escape)
	}
}

func (w *walker) scanArgs(call *ast.CallExpr, ev env) {
	for _, a := range call.Args {
		w.scan(a, ev, true)
	}
}

// assign handles acquisition, aliasing and overwrites.
func (w *walker) assign(s *ast.AssignStmt, ev env) {
	// Acquisition: x := pool.Get(n) / x = pool.Alloc().
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && w.isAcquire(call) {
			if id, ok := s.Lhs[0].(*ast.Ident); ok {
				if v, _ := w.pass.TypesInfo.ObjectOf(id).(*types.Var); v != nil {
					w.overwriteCheck(s.Pos(), ev, v)
					ev[v] = &track{st: stOwned, acqPos: s.Pos()}
					w.scanArgs(call, ev)
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						w.scan(sel.X, ev, false)
					}
					return
				}
			}
		}
	}
	for _, r := range s.Rhs {
		w.scan(r, ev, true)
	}
	for _, l := range s.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			if v := w.varOf(id); v != nil {
				w.overwriteCheck(s.Pos(), ev, v)
				delete(ev, v) // fresh, untracked value (nil, alias, load)
				continue
			}
			continue
		}
		// Store target like q.ring[i] or c.pending: scan index/receiver
		// parts as uses.
		w.scan(l, ev, false)
	}
}

// overwriteCheck fires when an owned value's only reference is about to
// be clobbered.
func (w *walker) overwriteCheck(pos token.Pos, ev env, v *types.Var) {
	if t := ev[v]; t != nil && t.st == stOwned {
		w.pass.Reportf(pos, "pooled %s (acquired at %s) overwritten without Release/Detach/handoff: the buffer leaks from its pool", v.Name(), w.pass.Fset.Position(t.acqPos))
	}
}

// isAcquire matches pool.Get(...) / pool.Alloc(...) returning a tracked
// pointer.
func (w *walker) isAcquire(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !acquireMethods[sel.Sel.Name] {
		return false
	}
	t := w.pass.TypesInfo.TypeOf(call)
	return t != nil && isTrackedPtr(t)
}

// leakCheck fires at returns: every still-owned value leaks on this
// path. Leaks are reported in acquisition order so output is stable
// (the checker holds itself to its own determinism contract).
func (w *walker) leakCheck(pos token.Pos, ev env) {
	var owned []*types.Var
	for v, t := range ev {
		if t.st == stOwned {
			owned = append(owned, v)
		}
	}
	sort.Slice(owned, func(i, j int) bool { return ev[owned[i]].acqPos < ev[owned[j]].acqPos })
	for _, v := range owned {
		t := ev[v]
		w.pass.Reportf(pos, "return leaks pooled %s (acquired at %s): this path neither Releases, Detaches nor hands it off", v.Name(), w.pass.Fset.Position(t.acqPos))
		t.st = stMuted
	}
}
