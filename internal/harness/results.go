package harness

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	// X is the independent variable (cores, message count, size, ...).
	X []float64
	// Y is the measured value (messages/s, Gbps, µs, ...).
	Y []float64
}

// Table is a formatted result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Result is the output of one experiment.
type Result struct {
	Name   string
	Figure string // paper figure/table this regenerates
	XLabel string
	YLabel string
	Series []Series
	Tables []Table
	Notes  []string
}

// AddPoint appends to the named series, creating it on first use.
func (r *Result) AddPoint(label string, x, y float64) {
	for i := range r.Series {
		if r.Series[i].Label == label {
			r.Series[i].X = append(r.Series[i].X, x)
			r.Series[i].Y = append(r.Series[i].Y, y)
			return
		}
	}
	r.Series = append(r.Series, Series{Label: label, X: []float64{x}, Y: []float64{y}})
}

// Get returns the y value at x for the labelled series.
func (r *Result) Get(label string, x float64) (float64, bool) {
	for _, s := range r.Series {
		if s.Label != label {
			continue
		}
		for i, xv := range s.X {
			if xv == x {
				return s.Y[i], true
			}
		}
	}
	return 0, false
}

// Fprint renders the result as aligned text.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s (%s) ==\n", r.Name, r.Figure)
	if len(r.Series) > 0 {
		// Collect the x grid.
		xs := map[float64]bool{}
		for _, s := range r.Series {
			for _, x := range s.X {
				xs[x] = true
			}
		}
		grid := make([]float64, 0, len(xs))
		for x := range xs {
			grid = append(grid, x)
		}
		sort.Float64s(grid)
		fmt.Fprintf(w, "%-12s", r.XLabel)
		for _, s := range r.Series {
			fmt.Fprintf(w, " %16s", s.Label)
		}
		fmt.Fprintf(w, "   [%s]\n", r.YLabel)
		for _, x := range grid {
			fmt.Fprintf(w, "%-12g", x)
			for _, s := range r.Series {
				if y, ok := r.Get(s.Label, x); ok {
					fmt.Fprintf(w, " %16.4g", y)
				} else {
					fmt.Fprintf(w, " %16s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	for _, t := range r.Tables {
		fmt.Fprintf(w, "-- %s --\n", t.Title)
		widths := make([]int, len(t.Columns))
		for i, c := range t.Columns {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		for i, c := range t.Columns {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
		for _, row := range t.Rows {
			for i, cell := range row {
				fmt.Fprintf(w, "%-*s  ", widths[i], cell)
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale controls experiment size so the same code serves `go test
// -bench` (Quick) and the paper-scale `ixbench` runs (Full).
type Scale struct {
	Name        string
	Warmup      time.Duration
	Window      time.Duration
	EchoClients int // client machines for §5.3/5.4 (paper: 18)
	ClientCores int // cores per client machine (paper: 8)
	MemcClients int // client machines for §5.5 (paper: 23)
	MemcCores   int // cores per memcached client machine
	MaxConns    int // Fig. 4 sweep ceiling (paper: 250k)
	RPSSteps    int // points per latency-throughput curve
}

// Full approximates the paper's testbed scale.
var Full = Scale{
	Name:        "full",
	Warmup:      10 * time.Millisecond,
	Window:      40 * time.Millisecond,
	EchoClients: 18,
	ClientCores: 8,
	MemcClients: 23,
	MemcCores:   2,
	// The paper's testbed tops out at 250k connections; the full-scale
	// reproduction sweeps Fig. 4 on to 1M to exercise the per-connection
	// memory budget.
	MaxConns: 1_000_000,
	RPSSteps: 10,
}

// Quick is a reduced configuration for unit benchmarks.
var Quick = Scale{
	Name:        "quick",
	Warmup:      4 * time.Millisecond,
	Window:      10 * time.Millisecond,
	EchoClients: 6,
	ClientCores: 4,
	MemcClients: 8,
	MemcCores:   2,
	MaxConns:    20_000,
	RPSSteps:    5,
}
