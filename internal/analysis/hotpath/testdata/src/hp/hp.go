// Package hp exercises the hotpath analyzer: every rejected allocation
// shape under an //ix:hotpath annotation, and the sanctioned idioms
// (hoisted buffers, bound method values, pointer-shaped `any` args,
// the string conversions the compiler makes without a copy). The
// exported green cases are also run under testing.AllocsPerRun.
package hp

import "fmt"

type ring struct {
	buf     []byte
	scratch [64]byte
	onFire  func(any)
	sink    []int
	anys    []any
}

type frame struct{ n int }

func sinkAny(a any)       {}
func sinkString(s string) {}
func variadic(xs ...any)  {}
func plain(n int) int     { return n }

// --- red cases ---

//ix:hotpath
func closures(r *ring) {
	f := func() {} // want `closure literal allocates per call`
	f()
}

//ix:hotpath
func spawns(r *ring) {
	go plain(1) // want `go statement on a per-message path`
}

//ix:hotpath
func defers(r *ring) {
	defer plain(1) // want `defer on a per-message path`
}

//ix:hotpath
func formats(r *ring, n int) {
	fmt.Println(n) // want `fmt\.Println formats and allocates per call`
}

//ix:hotpath
func allocates(r *ring, n int) *frame {
	b := make([]byte, n) // want `make\(\.\.\.\) allocates per call`
	_ = b
	p := new(frame) // want `new\(\.\.\.\) heap-allocates per call`
	_ = p
	return &frame{n: n} // want `&frame\{\.\.\.\} heap-allocates per call`
}

//ix:hotpath
func sliceLit(r *ring, b []byte) {
	bufs := [][]byte{b} // want `\[\]\[\]byte literal allocates per call`
	_ = bufs
}

//ix:hotpath
func stringBuild(r *ring, a, b string) string {
	return a + b // want `string concatenation allocates per call`
}

//ix:hotpath
func stringConv(r *ring, b []byte) string {
	return string(b) // want `string\(\.\.\.\) conversion copies and allocates per call`
}

//ix:hotpath
func mapStore(m map[string]int, b []byte) {
	m[string(b)] = 1 // want `string\(\.\.\.\) conversion copies and allocates per call`
}

//ix:hotpath
func mapIncrement(m map[string]int, b []byte) {
	m[string(b)]++ // want `string\(\.\.\.\) conversion copies and allocates per call`
}

//ix:hotpath
func convConcat(b []byte) bool {
	return string(b)+"x" == "yx" // want `string concatenation allocates per call` `string\(\.\.\.\) conversion copies and allocates per call`
}

//ix:hotpath
func convArg(b []byte) {
	sinkString(string(b)) // want `string\(\.\.\.\) conversion copies and allocates per call`
}

//ix:hotpath
func boxesInt(r *ring, n int) {
	sinkAny(n) // want `boxing int into any heap-allocates per call`
}

//ix:hotpath
func boxesStruct(r *ring, f frame) {
	var a any
	a = f // want `boxing frame into any heap-allocates per call`
	_ = a
}

//ix:hotpath
func variadicBox(r *ring, n int) {
	variadic(n, n) // want `call materializes a variadic any slice per call` `boxing int into any` `boxing int into any`
}

//ix:hotpath
func appendBox(r *ring, n int) {
	r.anys = append(r.anys, n) // want `boxing int into any`
}

// --- green cases ---

//ix:hotpath
func hoistedAppend(r *ring, b []byte) {
	r.buf = r.buf[:0]
	r.buf = append(r.buf, b...) // append into a hoisted buffer is sanctioned
	r.buf = append(r.buf, "\r\n"...)
	n := copy(r.scratch[:], b)
	_ = n
}

//ix:hotpath
func pointerShapedAny(r *ring, f *frame) {
	sinkAny(f) // *frame rides the interface word: no allocation
	r.onFire(f)
	r.anys = append(r.anys, f) // the builtin append builds no variadic slice
}

//ix:hotpath
func boundMethod(r *ring, n int) int {
	return plain(n)
}

//ix:hotpath
func valueStruct(r *ring, n int) frame {
	return frame{n: n} // value composite literal stays on the stack
}

//ix:hotpath
func constBox(r *ring, n int) {
	if n < 0 {
		panic("hp: negative count") // constants box into static data: no per-call allocation
	}
	sinkAny("tag") // likewise for any constant operand
}

// MapRead indexes a map with a converted key: the compiler looks the
// bytes up in place.
//
//ix:hotpath
func MapRead(m map[string]int, b []byte) int {
	return m[string(b)]
}

// MapReadOK is MapRead in comma-ok form.
//
//ix:hotpath
func MapReadOK(m map[string]int, b []byte) bool {
	_, ok := m[(string(b))]
	return ok
}

// Equal compares converted bytes with == and !=: no string is built.
//
//ix:hotpath
func Equal(b []byte, s string) bool {
	return len(b) > 4 && string(b[:4]) == "get " || s != string(b)
}

//ix:hotpath
func suppressedAlloc(r *ring) []byte {
	//ixvet:ignore(hotpath) fixture: cold sub-path, demonstrates the suppression grammar
	return make([]byte, 1)
}

// unannotated functions may do anything.
func coldPath(n int) string {
	return fmt.Sprintf("%d", n)
}
