package hotpath_test

import (
	"testing"

	"ix/internal/analysis/analysistest"
	"ix/internal/analysis/hotpath"
	"ix/internal/analysis/hotpath/testdata/src/hp"
)

func TestHotpath(t *testing.T) {
	analysistest.Run(t, hotpath.Analyzer, "hp")
}

// TestSanctionedConversionsDoNotAllocate: the string conversions the
// analyzer lets through (a map index read, an == or != operand) really
// are compiled without a copy.
func TestSanctionedConversionsDoNotAllocate(t *testing.T) {
	m := map[string]int{"get key": 7}
	b := []byte("get key")
	var n int
	var ok, eq bool
	if allocs := testing.AllocsPerRun(1000, func() {
		n = hp.MapRead(m, b)
		ok = hp.MapReadOK(m, b)
		eq = hp.Equal(b, "set")
	}); allocs != 0 {
		t.Fatalf("sanctioned conversions: %v allocs, want 0", allocs)
	}
	if n != 7 || !ok || !eq {
		t.Fatalf("MapRead = %d, MapReadOK = %v, Equal = %v", n, ok, eq)
	}
}
