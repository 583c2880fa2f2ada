package determinism_test

import (
	"testing"

	"ix/internal/analysis/analysistest"
	"ix/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "ix/internal/sim")
}

// TestNoPackageExemption: a package that looks like an OS-thread runtime
// gets the goroutine, sync-import and wall-clock diagnostics like any
// other sim-visible package — the analyzer has no allowlist.
func TestNoPackageExemption(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "ix/internal/noexempt")
}

func TestOutOfScopePackagesIgnored(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "ix/internal/analysis/outofscope")
}
