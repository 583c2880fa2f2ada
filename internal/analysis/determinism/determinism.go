// Package determinism enforces the simulator's byte-identical fixed-seed
// contract (DESIGN.md §Determinism) at build time: inside sim-visible
// packages nothing may consult a wall clock, the global math/rand state,
// spawn goroutines, import sync primitives, or let Go's randomized map
// iteration order reach simulation state, events or output. No package
// is exempt.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"ix/internal/analysis"
)

// Analyzer is the determinism invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: `forbids wall clocks, global PRNG state, goroutines, sync imports and unordered map iteration in sim-visible packages.
The simulation runs on one goroutine and a fixed seed must reproduce
byte-identical output (DESIGN.md §Determinism). Sanctioned idioms:
injector/engine-owned seeded *rand.Rand instances
(rand.New(rand.NewSource(seed))), and map iteration that either only
performs commutative updates or collects keys into a slice that is
sorted before use.`,
	Run: run,
}

// scopeRoots are the first path components under ix/internal/ that are
// sim-visible: code whose behaviour feeds simulated state, events or
// figure output. Bare paths (no ix/internal/ prefix) are matched on
// their first component too, which is how analysistest packages opt in.
var scopeRoots = map[string]bool{
	"sim": true, "fabric": true, "nicsim": true, "tcp": true,
	"libix": true, "core": true, "linuxstack": true, "mtcpstack": true,
	"netstack": true, "faults": true, "cp": true, "harness": true,
	"timerwheel": true, "mem": true, "wire": true, "apps": true,
	"mutilate": true, "stats": true, "dune": true, "ixnet": true,
	"sockcore": true,
}

// wallClockFuncs are the package time functions that read or arm the
// host's wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand functions that merely build seeded
// generators — the sanctioned idiom — rather than drawing from the
// package-global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// syncImports are the import paths whose presence means OS-level
// synchronization — mutexes, atomics, channels of control — which a
// single-goroutine simulation has no use for.
var syncImports = map[string]bool{
	"sync": true, "sync/atomic": true,
}

func inScope(pkgPath string) bool {
	rest, ok := strings.CutPrefix(pkgPath, "ix/internal/")
	if !ok {
		rest = pkgPath
	}
	first, _, _ := strings.Cut(rest, "/")
	return scopeRoots[first]
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		checkSyncImports(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in sim-visible package %s: the simulation is single-goroutine; concurrency here breaks fixed-seed determinism", pass.Pkg.Name())
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
				return true
			}
			return true
		})
	}
	return nil
}

// checkSyncImports flags sync and sync/atomic imports.
func checkSyncImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if syncImports[path] {
			pass.Reportf(imp.Pos(), "import %q in sim-visible package %s: mutexes and atomics imply cross-goroutine sharing, which the single-goroutine simulation never does; shared sinks are plain fields", path, pass.Pkg.Name())
		}
	}
}

// checkSelector flags wall-clock reads and global math/rand draws.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(), "time.%s in sim-visible package %s: wall-clock time breaks fixed-seed determinism; use the engine's virtual clock (sim.Time)", fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(sel.Pos(), "global rand.%s in sim-visible package %s: the process-global PRNG breaks fixed-seed determinism; draw from an engine- or injector-owned rand.New(rand.NewSource(seed))", fn.Name(), pass.Pkg.Name())
		}
	}
}

// checkMapRanges walks one function body and flags map-range loops whose
// effects depend on iteration order. Two shapes are sanctioned:
//
//   - commutative bodies: counters (x++, x += n on numeric types),
//     bitmask accumulation, delete, distinct-key inserts m2[k] = v keyed
//     directly by the range key, filtering via if/continue;
//   - the sorted-key idiom: the body only appends to slices, and every
//     such slice is passed to a sort call later in the same function.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	// Collect the function's statements once so the "sorted later"
	// check can look downstream of each range loop.
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		c := &rangeCheck{pass: pass, rng: rng}
		if c.bodyCommutes(rng.Body) {
			if len(c.appended) == 0 || c.appendTargetsSorted(body) {
				return true
			}
		}
		pass.Reportf(rng.Pos(), "map iteration order is randomized and this loop's effects are order-dependent; collect the keys, sort, and iterate the slice (DESIGN.md §Determinism)")
		return true
	})
}

type rangeCheck struct {
	pass *analysis.Pass
	rng  *ast.RangeStmt
	// appended are the slice variables the loop appends to; they must be
	// sorted downstream for the loop to pass.
	appended []*types.Var
}

// bodyCommutes reports whether every statement's effect is independent
// of iteration order (given distinct keys), recording append targets.
func (c *rangeCheck) bodyCommutes(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if !c.stmtCommutes(s) {
			return false
		}
	}
	return true
}

func (c *rangeCheck) stmtCommutes(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.EmptyStmt:
		return true
	case *ast.BlockStmt:
		return c.bodyCommutes(s)
	case *ast.IfStmt:
		if s.Init != nil && !c.stmtCommutes(s.Init) {
			return false
		}
		if !c.bodyCommutes(s.Body) {
			return false
		}
		if s.Else != nil {
			return c.stmtCommutes(s.Else)
		}
		return true
	case *ast.ExprStmt:
		// delete(m2, k): each iteration touches its own key.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
		return false
	case *ast.AssignStmt:
		return c.assignCommutes(s)
	default:
		return false
	}
}

func (c *rangeCheck) assignCommutes(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
		token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative accumulation — but only on numeric types (string
		// concatenation via += is order-dependent).
		for _, l := range s.Lhs {
			t := c.pass.TypesInfo.TypeOf(l)
			if t == nil {
				return false
			}
			b, ok := t.Underlying().(*types.Basic)
			if !ok || b.Info()&types.IsNumeric == 0 {
				return false
			}
		}
		return true
	case token.ASSIGN, token.DEFINE:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		// x = append(x, ...): sanctioned iff x is sorted downstream.
		if v := c.appendToSelf(s); v != nil {
			c.appended = append(c.appended, v)
			return true
		}
		// Map inserts that commute. m2[k] = v keyed by the range key
		// writes distinct keys; m2[v] = e keyed by the range value may
		// collide, so the written value must not depend on the range
		// key (colliding writes are then identical). Neither may read
		// the target map.
		if idx, ok := s.Lhs[0].(*ast.IndexExpr); ok && s.Tok == token.ASSIGN {
			if kid, ok := idx.Index.(*ast.Ident); ok && !c.mentions(s.Rhs[0], idx.X) {
				if c.isRangeVar(kid, c.rng.Key) && !c.mentions(idx.X, c.rng.Key) {
					return true
				}
				if c.isRangeVar(kid, c.rng.Value) && !c.mentions(s.Rhs[0], c.rng.Key) {
					return true
				}
			}
		}
		return false
	}
	return false
}

// appendToSelf matches `x = append(x, ...)` and returns x's variable.
func (c *rangeCheck) appendToSelf(s *ast.AssignStmt) *types.Var {
	lid, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fid, ok := call.Fun.(*ast.Ident)
	if !ok || fid.Name != "append" {
		return nil
	}
	if _, isBuiltin := c.pass.TypesInfo.Uses[fid].(*types.Builtin); !isBuiltin {
		return nil
	}
	aid, ok := call.Args[0].(*ast.Ident)
	if !ok || aid.Name != lid.Name {
		return nil
	}
	v, _ := c.pass.TypesInfo.ObjectOf(lid).(*types.Var)
	return v
}

// isRangeVar reports whether id denotes the same variable as the range
// clause's key or value ident rv.
func (c *rangeCheck) isRangeVar(id *ast.Ident, rv ast.Expr) bool {
	rid, ok := rv.(*ast.Ident)
	if !ok {
		return false
	}
	ro := c.pass.TypesInfo.ObjectOf(rid)
	return ro != nil && c.pass.TypesInfo.ObjectOf(id) == ro
}

// mentions reports whether expression e references the object named by
// expression target (an ident; non-idents conservatively return true).
func (c *rangeCheck) mentions(e ast.Expr, target ast.Expr) bool {
	if e == nil {
		return false
	}
	tid, ok := target.(*ast.Ident)
	if !ok {
		return true // can't prove independence of a non-ident target
	}
	to := c.pass.TypesInfo.ObjectOf(tid)
	if to == nil {
		return false // blank ident: nothing can reference it
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(id) == to {
			found = true
		}
		return !found
	})
	return found
}

// appendTargetsSorted reports whether every slice the loop appends to is
// passed to a sort call after the loop within the same function body.
func (c *rangeCheck) appendTargetsSorted(fnBody *ast.BlockStmt) bool {
	for _, v := range c.appended {
		if v == nil || !c.sortedAfter(fnBody, v) {
			return false
		}
	}
	return true
}

func (c *rangeCheck) sortedAfter(fnBody *ast.BlockStmt, v *types.Var) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < c.rng.End() {
			return true
		}
		if c.callSorts(call, v) {
			sorted = true
		}
		return true
	})
	return sorted
}

// callSorts reports whether call is a sanctioned sort of the appended
// slice v. Two shapes qualify:
//
//   - a sort or slices package call that mentions v anywhere in its
//     arguments (sort.Strings(ks), sort.Slice(ks, less), slices.SortFunc);
//   - a helper whose name contains "sort" AND that receives v directly
//     as an argument in a slice-typed parameter slot. The signature
//     requirement keeps the heuristic narrow: sortKey(ks[0]) or
//     resorted(len(ks)) merely mention v and do not discharge the
//     obligation.
func (c *rangeCheck) callSorts(call *ast.CallExpr, v *types.Var) bool {
	fun := call.Fun
	switch idx := fun.(type) { // unwrap explicit generic instantiation
	case *ast.IndexExpr:
		fun = idx.X
	case *ast.IndexListExpr:
		fun = idx.X
	}
	var name string
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		if obj, ok := c.pass.TypesInfo.Uses[f.Sel].(*types.Func); ok && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sort", "slices":
				return c.argsMention(call.Args, v)
			}
		}
		name = f.Sel.Name
	case *ast.Ident:
		name = f.Name
	default:
		return false
	}
	if !strings.Contains(strings.ToLower(name), "sort") {
		return false
	}
	sig, ok := c.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	for i, a := range call.Args {
		id, ok := a.(*ast.Ident)
		if !ok || c.pass.TypesInfo.ObjectOf(id) != v {
			continue
		}
		if paramIsSlice(sig, i) {
			return true
		}
	}
	return false
}

// argsMention reports whether v appears anywhere in args.
func (c *rangeCheck) argsMention(args []ast.Expr, v *types.Var) bool {
	found := false
	for _, a := range args {
		ast.Inspect(a, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(id) == v {
				found = true
			}
			return !found
		})
	}
	return found
}

// paramIsSlice reports whether the parameter receiving argument i has
// slice type (for a variadic final parameter, whether the collected
// element type is a slice).
func paramIsSlice(sig *types.Signature, i int) bool {
	params := sig.Params()
	if params.Len() == 0 {
		return false
	}
	last := params.Len() - 1
	if i >= params.Len() {
		if !sig.Variadic() {
			return false
		}
		i = last
	}
	t := params.At(i).Type()
	if sig.Variadic() && i == last {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		t = s.Elem()
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
