// Package sim is a determinism-analyzer test fixture: its import path
// ix/internal/sim is under ix/internal/, so the analyzer treats it
// exactly like the real engine package.
package sim

import (
	"cmp"
	"iter"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"
)

type engine struct {
	rng   *rand.Rand
	now   int64
	state map[string]int
}

// --- red: wall clock ---

func wallClock(e *engine) time.Duration {
	t0 := time.Now()             // want `time\.Now in sim-visible package`
	time.Sleep(time.Millisecond) // want `time\.Sleep in sim-visible package`
	return time.Since(t0)        // want `time\.Since in sim-visible package`
}

// --- red: global PRNG ---

func globalRand() int {
	return rand.Intn(10) // want `global rand\.Intn in sim-visible package`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global rand\.Shuffle in sim-visible package`
}

// --- green: engine-owned seeded PRNG (the sanctioned idiom) ---

func seeded(seed int64) *engine {
	return &engine{rng: rand.New(rand.NewSource(seed))}
}

func (e *engine) draw() int { return e.rng.Intn(10) }

// --- red: goroutines ---

func spawn(f func()) {
	go f() // want `go statement in sim-visible package`
}

// --- green: the one sanctioned form of map iteration ---

func emitSorted(e *engine, out func(string, int)) {
	for _, k := range slices.Sorted(maps.Keys(e.state)) {
		out(k, e.state[k])
	}
}

func valuesByCmp(m map[string]int, out func(int)) {
	for _, v := range slices.SortedFunc(maps.Values(m), cmp.Compare[int]) {
		out(v)
	}
}

func keysStable(m map[string]int) []string {
	return slices.SortedStableFunc(maps.Keys(m), func(a, b string) int { return cmp.Compare(len(a), len(b)) })
}

func keysInstantiated(m map[string]int) []string {
	return slices.Sorted[string](maps.Keys[map[string]int](m))
}

// --- green: order-free package maps helpers ---

func snapshot(m map[string]int) map[string]int { return maps.Clone(m) }

// --- red: any range over a map ---

func emit(e *engine, out func(string, int)) {
	for k, v := range e.state { // want `range over a map in sim-visible package`
		out(k, v)
	}
}

func firstKey(e *engine) string {
	for k := range e.state { // want `range over a map in sim-visible package`
		return k
	}
	return ""
}

func appendNoSort(e *engine) []string {
	var ks []string
	for k := range e.state { // want `range over a map in sim-visible package`
		ks = append(ks, k)
	}
	return ks
}

type registry map[int]string

func namedMap(r registry, out func(string)) {
	for _, v := range r { // want `range over a map in sim-visible package`
		out(v)
	}
}

// --- red: append-then-sort is a range over a map, even when sorted ---

func appendThenSort(e *engine, out func(string, int)) {
	ks := make([]string, 0, len(e.state))
	for k := range e.state { // want `range over a map in sim-visible package`
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		out(k, e.state[k])
	}
}

// --- red: commutative bodies are ranges over a map too ---

func tally(e *engine) (n, sum int) {
	for _, v := range e.state { // want `range over a map in sim-visible package`
		n++
		sum += v
	}
	return
}

func invert(m map[string]int) map[int]bool {
	out := make(map[int]bool, len(m))
	for _, v := range m { // want `range over a map in sim-visible package`
		out[v] = true
	}
	return out
}

func drop(m map[string]int, dead map[string]bool) {
	for k := range dead { // want `range over a map in sim-visible package`
		delete(m, k)
	}
}

// --- red: package maps iteration outside a sort ---

func rangeKeysIter(m map[string]int, out func(string)) {
	for k := range maps.Keys(m) { // want `maps\.Keys in sim-visible package`
		out(k)
	}
}

func collectKeys(m map[string]int) []string {
	return slices.Collect(maps.Keys(m)) // want `maps\.Keys in sim-visible package`
}

func allPairs(m map[string]int, out func(string, int)) {
	for k, v := range maps.All(m) { // want `maps\.All in sim-visible package`
		out(k, v)
	}
}

func sumValues(m map[string]int) (n int) {
	for v := range maps.Values(m) { // want `maps\.Values in sim-visible package`
		n += v
	}
	return n
}

func prune(m map[string]int, dead func(string, int) bool) {
	maps.DeleteFunc(m, dead) // want `maps\.DeleteFunc in sim-visible package`
}

func same(a, b map[string]int, eq func(int, int) bool) bool {
	return maps.EqualFunc(a, b, eq) // want `maps\.EqualFunc in sim-visible package`
}

func keysAsValue() func(map[string]int) iter.Seq[string] {
	return maps.Keys[map[string]int] // want `maps\.Keys in sim-visible package`
}

func sortedIndirect(m map[string]int) []string {
	upper := func(seq iter.Seq[string]) iter.Seq[string] {
		return func(yield func(string) bool) {
			for k := range seq {
				if !yield(strings.ToUpper(k)) {
					return
				}
			}
		}
	}
	return slices.Sorted(upper(maps.Keys(m))) // want `maps\.Keys in sim-visible package`
}

// --- green: suppression with a reason ---

func suppressed(e *engine, sink func(int)) {
	//ixvet:ignore(determinism) fixture: demonstrates the suppression grammar in a green test
	for _, v := range e.state {
		sink(v)
	}
}
