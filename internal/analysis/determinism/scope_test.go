package determinism

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSimVisiblePackagesInScope guards scopeRoots: every non-test
// package under ix/internal that imports the engine, the TCP engine or
// the fabric feeds simulated state, so the analyzer must check it. A new
// package that misses the list would otherwise be skipped silently.
func TestSimVisiblePackagesInScope(t *testing.T) {
	simPkgs := map[string]bool{"ix/internal/sim": true, "ix/internal/tcp": true, "ix/internal/fabric": true}
	const root = "../.." // ix/internal
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "ix/internal/" + filepath.ToSlash(rel)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !simPkgs[p] {
				continue
			}
			checked++
			if !inScope(pkg) {
				t.Errorf("%s (%s) imports %s but is outside the determinism analyzer's scopeRoots", pkg, filepath.Base(path), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no package imports sim, tcp or fabric: the walk found nothing")
	}
}
