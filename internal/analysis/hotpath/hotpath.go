// Package hotpath turns the repository's TestZeroAlloc* runtime contract
// into a compile-time gate. A function annotated with an `//ix:hotpath`
// doc-comment line is a per-message path (tcp send/ACK, nicsim rings,
// the libix event loop, the faults pass-through): under it the analyzer
// rejects the syntactic forms that allocate or box on every call.
//
// Rejected under //ix:hotpath:
//
//   - closure literals (captures allocate; the sanctioned idiom is a
//     bound method value hoisted to a struct field at setup time)
//   - go and defer statements
//   - any use of package fmt
//   - new(T), make(...), &T{...}, and slice/map composite literals
//   - string concatenation and string<->[]byte conversions, except the
//     two forms the compiler builds no string for: the key of a map
//     index read (`v := m[string(b)]`, `v, ok := m[string(b)]`) and an
//     operand of == or != (`string(b) == "get "`)
//   - boxing a non-pointer-shaped value into an interface (pointer,
//     chan, map and func values fit an interface word and do not
//     allocate — the engine's `any`-typed event trampolines rely on
//     exactly that — but ints, structs and slices heap-allocate)
//   - calls that materialize a variadic interface slice (fmt-style APIs;
//     the builtin append, which writes into its first argument, does not)
//
// Appends are allowed: the repository's hot paths append into slices
// whose capacity is hoisted and ping-ponged, which the runtime
// TestZeroAlloc* suite still verifies.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ix/internal/analysis"
)

// Marker is the annotation that opts a function into the hot-path
// contract.
const Marker = "//ix:hotpath"

// Analyzer is the zero-alloc hot-path checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: `rejects per-call allocation and boxing under //ix:hotpath-annotated functions.
The annotation marks per-message functions whose steady state must not
allocate (the TestZeroAlloc* contract); violations are closures, defers,
fmt, new/make/&T{}, slice/map literals, string building, non-pointer
interface boxing and variadic-interface calls.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !annotated(fn) {
				continue
			}
			c := &checker{pass: pass, fn: fn, writes: map[ast.Expr]bool{}, inPlace: map[*ast.CallExpr]bool{}}
			c.block(fn.Body)
		}
	}
	return nil
}

func annotated(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, Marker) {
			return true
		}
	}
	return false
}

type checker struct {
	pass *analysis.Pass
	fn   *ast.FuncDecl
	// writes holds map index expressions being assigned to, whose
	// converted key the compiler must build (the map may keep it).
	writes map[ast.Expr]bool
	// inPlace holds string([]byte) conversions the compiler compiles
	// without a copy: map index reads and ==/!= operands.
	inPlace map[*ast.CallExpr]bool
}

func (c *checker) report(n ast.Node, format string, args ...any) {
	c.pass.Reportf(n.Pos(), "//ix:hotpath %s: "+format,
		append([]any{c.fn.Name.Name}, args...)...)
}

func (c *checker) block(b *ast.BlockStmt) {
	ast.Inspect(b, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.report(n, "closure literal allocates per call; hoist a bound method value at setup time")
			return false
		case *ast.GoStmt:
			c.report(n, "go statement on a per-message path")
			return false
		case *ast.DeferStmt:
			c.report(n, "defer on a per-message path")
			return false
		case *ast.UnaryExpr:
			if cl, ok := n.X.(*ast.CompositeLit); ok {
				c.report(n, "&%s{...} heap-allocates per call", typeLabel(c.pass, cl))
				return false
			}
		case *ast.CompositeLit:
			if t := c.pass.TypesInfo.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					c.report(n, "%s literal allocates per call; reuse a hoisted buffer", typeLabel(c.pass, n))
					return false
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD:
				if t := c.pass.TypesInfo.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						c.report(n, "string concatenation allocates per call")
					}
				}
			case token.EQL, token.NEQ:
				c.markInPlace(n.X)
				c.markInPlace(n.Y)
			}
		case *ast.IndexExpr:
			if t := c.pass.TypesInfo.TypeOf(n.X); t != nil && !c.writes[n] {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					c.markInPlace(n.Index)
				}
			}
		case *ast.IncDecStmt:
			c.writes[ast.Unparen(n.X)] = true
		case *ast.CallExpr:
			if !c.inPlace[n] {
				c.call(n)
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				c.writes[ast.Unparen(l)] = true
			}
			c.boxingInAssign(n)
		case *ast.ReturnStmt:
			c.boxingInReturn(n)
		}
		return true
	})
}

func (c *checker) call(call *ast.CallExpr) {
	// fmt use.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			c.report(call, "fmt.%s formats and allocates per call", obj.Name())
			return
		}
	}
	// Builtins and conversions.
	builtinAppend := false
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "new":
				c.report(call, "new(...) heap-allocates per call")
				return
			case "make":
				c.report(call, "make(...) allocates per call; hoist the buffer")
				return
			case "append":
				builtinAppend = true
			}
		}
	}
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		c.conversion(call, tv.Type)
		return
	}
	// Interface boxing at argument positions + variadic interface calls.
	sig := c.signatureOf(call.Fun)
	if sig == nil {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, a := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			// append(b, s...) with a string s records its final
			// parameter as string, not a slice: nothing is boxed.
			st, ok := params.At(np - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
			if call.Ellipsis == 0 && isInterface(pt) && i == np-1 && !builtinAppend {
				c.report(call, "call materializes a variadic %s slice per call", pt)
			}
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		c.boxing(a, pt)
	}
}

// markInPlace records e if it is a string([]byte) conversion, which the
// caller has found in a position the compiler reads without a copy.
func (c *checker) markInPlace(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	from := c.pass.TypesInfo.TypeOf(call.Args[0])
	if !ok || !tv.IsType() || !isString(tv.Type.Underlying()) || from == nil {
		return
	}
	if _, fromSlice := from.Underlying().(*types.Slice); fromSlice {
		c.inPlace[call] = true
	}
}

// conversion flags allocating conversions: string<->[]byte/[]rune and
// concrete->interface.
func (c *checker) conversion(call *ast.CallExpr, to types.Type) {
	from := c.pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	toU, fromU := to.Underlying(), from.Underlying()
	if isInterface(to) {
		c.boxing(call.Args[0], to)
		return
	}
	_, toSlice := toU.(*types.Slice)
	_, fromSlice := fromU.(*types.Slice)
	toStr := isString(toU)
	fromStr := isString(fromU)
	if (toSlice && fromStr) || (toStr && fromSlice) {
		c.report(call, "%s(...) conversion copies and allocates per call", types.TypeString(to, types.RelativeTo(c.pass.Pkg)))
	}
}

func (c *checker) boxingInAssign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i := range s.Lhs {
		lt := c.pass.TypesInfo.TypeOf(s.Lhs[i])
		if lt != nil {
			c.boxing(s.Rhs[i], lt)
		}
	}
}

func (c *checker) boxingInReturn(s *ast.ReturnStmt) {
	sig, ok := c.pass.TypesInfo.Defs[c.fn.Name].(*types.Func)
	if !ok {
		return
	}
	res := sig.Type().(*types.Signature).Results()
	if res.Len() != len(s.Results) {
		return
	}
	for i, r := range s.Results {
		c.boxing(r, res.At(i).Type())
	}
}

// boxing reports expr if assigning it to target boxes a value that
// cannot ride in the interface word.
func (c *checker) boxing(expr ast.Expr, target types.Type) {
	if !isInterface(target) {
		return
	}
	t := c.pass.TypesInfo.TypeOf(expr)
	if t == nil || isInterface(t) {
		return
	}
	// nil never allocates; neither do constants — the compiler boxes
	// them once into static read-only data (panic("msg") is the common
	// case on guard paths).
	if tv, ok := c.pass.TypesInfo.Types[expr]; ok && (tv.IsNil() || tv.Value != nil) {
		return
	}
	if pointerShaped(t) {
		return
	}
	c.report(expr, "boxing %s into %s heap-allocates per call (only pointer-shaped values ride the interface word)",
		types.TypeString(t, types.RelativeTo(c.pass.Pkg)),
		types.TypeString(target, types.RelativeTo(c.pass.Pkg)))
}

func (c *checker) signatureOf(fun ast.Expr) *types.Signature {
	t := c.pass.TypesInfo.TypeOf(fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pointerShaped reports whether values of t fit the interface data word
// without allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func typeLabel(pass *analysis.Pass, cl *ast.CompositeLit) string {
	if t := pass.TypesInfo.TypeOf(cl); t != nil {
		return types.TypeString(t, types.RelativeTo(pass.Pkg))
	}
	return "composite"
}
