// Package determinism enforces the simulator's byte-identical fixed-seed
// contract (DESIGN.md §Determinism) at build time: inside sim-visible
// packages nothing may consult a wall clock, the global math/rand state,
// spawn goroutines, import sync primitives, or iterate a map in any form
// but its sorted keys or values. No package is exempt.
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"ix/internal/analysis"
)

// Analyzer is the determinism invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: `forbids wall clocks, global PRNG state, goroutines, sync imports and unsorted map iteration in sim-visible packages.
The simulation runs on one goroutine and a fixed seed must reproduce
byte-identical output (DESIGN.md §Determinism). Every package under
ix/internal/ except ix/internal/analysis/... is sim-visible. Sanctioned
idioms: injector/engine-owned seeded *rand.Rand instances
(rand.New(rand.NewSource(seed))), and map iteration written as
slices.Sorted, SortedFunc or SortedStableFunc applied directly to
maps.Keys(m) or maps.Values(m). Any range over a map, and any other use
of maps.All, Keys, Values, DeleteFunc or EqualFunc, is reported. A Func
comparator must be a total order on the elements (break ties down to a
unique field); the analyzer cannot check that.`,
	Run: run,
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

// mapOrderFuncs are the package maps functions that visit a map in its
// randomized order, through an iterator or a callback.
var mapOrderFuncs = map[string]bool{
	"All": true, "Keys": true, "Values": true,
	"DeleteFunc": true, "EqualFunc": true,
}

// sortedFuncs are the package slices functions that collect an iterator
// into a sorted slice; their first argument may be maps.Keys or
// maps.Values.
var sortedFuncs = map[string]bool{
	"Sorted": true, "SortedFunc": true, "SortedStableFunc": true,
}

// inScope reports whether pkgPath is sim-visible: every package under
// ix/internal/ except the analyzers themselves.
func inScope(pkgPath string) bool {
	rest, ok := strings.CutPrefix(pkgPath, "ix/internal/")
	return ok && rest != "analysis" && !strings.HasPrefix(rest, "analysis/")
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
		// sorted holds the maps.Keys/Values selectors that are the first
		// argument of a slices.Sorted* call. ast.Inspect visits the outer
		// call before its arguments, so the mark is in place in time.
		sorted := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in sim-visible package %s: the simulation is single-goroutine; concurrency here breaks fixed-seed determinism", pass.Pkg.Name())
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "range over a map in sim-visible package %s: iteration order is randomized; iterate slices.Sorted(maps.Keys(m)) or slices.SortedFunc with a total order instead (DESIGN.md §Determinism)", pass.Pkg.Name())
					}
				}
			case *ast.CallExpr:
				if fn, _ := pkgFunc(pass, n.Fun, "slices"); sortedFuncs[fn] && len(n.Args) > 0 {
					if inner, ok := n.Args[0].(*ast.CallExpr); ok {
						if fn, sel := pkgFunc(pass, inner.Fun, "maps"); fn == "Keys" || fn == "Values" {
							sorted[sel] = true
						}
					}
				}
			case *ast.SelectorExpr:
				checkSelector(pass, n, sorted)
			}
			return true
		})
	}
	return nil
}

// pkgFunc returns the name and selector of e when it denotes a
// package-level function of the package at path (explicit generic
// instantiation unwrapped), and "" otherwise.
func pkgFunc(pass *analysis.Pass, e ast.Expr, path string) (string, *ast.SelectorExpr) {
	switch ix := e.(type) {
	case *ast.IndexExpr:
		e = ix.X
	case *ast.IndexListExpr:
		e = ix.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != path {
		return "", nil
	}
	return fn.Name(), sel
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

// checkSelector flags wall-clock reads, global math/rand draws and
// map-order iteration through package maps outside a sort.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr, sorted map[*ast.SelectorExpr]bool) {
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
	case "maps":
		if mapOrderFuncs[fn.Name()] && !sorted[sel] {
			pass.Reportf(sel.Pos(), "maps.%s in sim-visible package %s visits the map in randomized order; the only sanctioned form is slices.Sorted, SortedFunc or SortedStableFunc applied directly to maps.Keys(m) or maps.Values(m) (DESIGN.md §Determinism)", fn.Name(), pass.Pkg.Name())
		}
	}
}
