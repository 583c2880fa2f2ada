// Command ixbench regenerates the tables and figures of the IX paper's
// evaluation (§5). Each experiment prints the same rows/series the paper
// plots; the paper's numbers are quoted in each result's notes and
// checked by internal/harness/claims_test.go.
//
// Usage:
//
//	ixbench -experiment fig3b -scale full
//	ixbench -experiment all -scale quick
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"ix/internal/harness"
)

func main() {
	all := slices.Sorted(maps.Keys(harness.Experiments))
	exp := flag.String("experiment", "all", "experiment name ("+strings.Join(all, ", ")+") or 'all'")
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	window := flag.Duration("window", 0, "override measurement window")
	flag.Parse()

	sc := harness.Quick
	if *scale == "full" {
		sc = harness.Full
	}
	if *window > 0 {
		sc.Window = *window
	}

	names := []string{*exp}
	if *exp == "all" {
		names = all
	}
	for _, n := range names {
		fn, ok := harness.Experiments[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "ixbench: unknown experiment %q\n", n)
			os.Exit(2)
		}
		start := time.Now()
		r := fn(sc)
		r.Notes = append(r.Notes, fmt.Sprintf("scale=%s, wall time %v", sc.Name, time.Since(start).Round(time.Millisecond)))
		r.Fprint(os.Stdout)
	}
}
