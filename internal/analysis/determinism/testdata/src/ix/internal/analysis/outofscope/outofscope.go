// Package outofscope is not sim-visible: it sits under
// ix/internal/analysis/, the one subtree the determinism analyzer skips,
// so it must stay silent here even on otherwise-red patterns (tooling
// may use wall clocks and map order freely).
package outofscope

import (
	"maps"
	"slices"
	"time"
)

func wallClockIsFine() time.Time { return time.Now() }

func unorderedIsFine(m map[string]int, out func(string, int)) {
	for k, v := range m {
		out(k, v)
	}
}

func keysUnsortedIsFine(m map[string]int) []string {
	return slices.Collect(maps.Keys(m))
}
