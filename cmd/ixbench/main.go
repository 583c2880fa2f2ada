// Command ixbench regenerates the tables and figures of the IX paper's
// evaluation (§5). Each experiment prints the same rows/series the paper
// plots; see EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	ixbench -experiment fig3b -scale full
//	ixbench -experiment all -scale quick
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ix/internal/harness"
)

func main() {
	exp := flag.String("experiment", "all", "experiment name (fig2, fig3a, fig3b, fig3c, fig4, fig5, fig6, table2, elastic, incast, chaos, tenants, httpkv) or 'all'")
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
		names = names[:0]
		for n := range harness.Experiments {
			names = append(names, n)
		}
		sort.Strings(names)
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
