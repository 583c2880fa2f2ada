package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// judge compares b against a for one metric. Worse by more than the
// bound is a regression however noisy the runs were; otherwise a spread
// (the distance between the reps' quartiles, as a share of the median)
// wider than the bound on either side means the row cannot be called
// unchanged or better.
// exact is set for a simulated metric of two runs on the same seed: there
// any movement at all is a change of the model, not noise.
func judge(d metricDef, a, b summary, exact bool) (verdict string, change float64) {
	if a.Median == 0 {
		return verdictUnresolved, 0
	}
	change = (b.Median - a.Median) / a.Median // > 0: b reads higher
	worse := change
	if d.Better == higher {
		worse = -change
	}
	bound := d.Bound
	if exact {
		bound = 0
	}
	switch {
	case worse > bound:
		return verdictWorse, change
	case spread(a) > bound || spread(b) > bound:
		return verdictUnresolved, change
	case -worse > bound:
		return verdictBetter, change
	}
	return verdictUnchanged, change
}

func spread(s summary) float64 { return ratio(s.Q3-s.Q1, s.Median) }

func readSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &suiteResult{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints one row per (end-to-end metric, workload) and
// returns the exit status: non-zero on any worse row, a larger
// failed_share, or a workload missing from b.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readSuite(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readSuite(pathB)
	if err != nil {
		fatal(err)
	}
	return compareSuites(a, b, w)
}

func compareSuites(a, b *suiteResult, w io.Writer) int {
	status := 0
	sameSeed := a.Seed == b.Seed
	fmt.Fprintf(w, "a: %s seed %d   b: %s seed %d\n", a.When, a.Seed, b.When, b.Seed)
	if !sameSeed {
		fmt.Fprintln(w, "seeds differ: simulated metrics are judged by their bounds, not exactly")
	}
	byName := map[string]*runResult{}
	for _, r := range b.Runs {
		byName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict")
	counts := map[string]int{}
	for _, ra := range a.Runs {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(tw, "%s\t(all)\t\t\t\t\tmissing from b\n", ra.Workload)
			status = 1
			continue
		}
		for _, d := range endToEnd {
			exact := sameSeed && clockOf[d.Name] == "sim"
			v, change := judge(d, ra.EndToEnd[d.Name], rb.EndToEnd[d.Name], exact)
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if exact {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%s\n", ra.Workload, d.Name,
				ra.EndToEnd[d.Name].Median, rb.EndToEnd[d.Name].Median, 100*change, bound, v)
			counts[v]++
			if v == verdictWorse {
				status = 1
			}
		}
		v := verdictUnchanged
		if rb.FailedShare > ra.FailedShare {
			v, status = verdictWorse, 1
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.6g\t%.6g\t\texact\t%s\n", ra.Workload, ra.FailedShare, rb.FailedShare, v)
		if sameSeed && ra.Digest != rb.Digest {
			fmt.Fprintf(tw, "%s\tsim_digest\t%s\t%s\t\texact\tthe model changed\n", ra.Workload, ra.Digest, rb.Digest)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d better, %d worse, %d unchanged, %d unresolved\n",
		counts[verdictBetter], counts[verdictWorse], counts[verdictUnchanged], counts[verdictUnresolved])
	return status
}
