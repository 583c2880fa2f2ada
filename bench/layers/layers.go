// Package layers is the per-layer micro-benchmark table: plain functions
// that time calls into each layer's public entry points in isolation,
// with traffic shaped like the benchmark's workloads (1k against 100k
// pending events, 96 against 250k connections, 64 B against 1460 B).
// Nothing here depends on the testing package at run time.
package layers

import (
	"runtime"
	"sort"
	"time"
)

// A Bench is one micro-benchmark. Setup builds the fixture and returns
// the timed operation: op(n) performs about n calls and reports how many
// it performed.
type Bench struct {
	Name string
	// Unit is the unit of the time per call: "ns", or "ms" for the
	// few-per-second fixtures.
	Unit  string
	Setup func() (op func(n int) int)
}

// A Result is the median of the timed batches.
type Result struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// PerCall is the median time per call in Unit; Min and Max are the
	// extreme batches.
	PerCall float64 `json:"per_call"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	// Allocs is the median heap allocations per call.
	Allocs  float64 `json:"allocs"`
	Batches int     `json:"batches"`
	// Calls is the number of calls in one batch.
	Calls int `json:"calls"`
}

const (
	batches = 5
	// batchTime is what one timed batch should last: long enough to
	// swamp the clock reads and the ReadMemStats pauses around it.
	batchTime = 15 * time.Millisecond
)

// Run sets b up, sizes a batch to batchTime, and times five of them.
func Run(b Bench) Result {
	op := b.Setup()
	n := 1
	for {
		t0 := time.Now()
		done := op(n)
		el := time.Since(t0)
		if el >= batchTime/2 || n >= 1<<24 {
			n = max(1, int(float64(done)*float64(batchTime)/float64(max(el, 1))))
			break
		}
		n *= 4
	}
	scale := 1.0
	if b.Unit == "ms" {
		scale = 1e-6
	}
	var per, allocs []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < batches; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		done := op(n)
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		per = append(per, float64(el)/float64(done)*scale)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(done))
	}
	sort.Float64s(per)
	sort.Float64s(allocs)
	return Result{
		Name: b.Name, Unit: b.Unit, PerCall: per[batches/2], Min: per[0], Max: per[batches-1],
		Allocs: allocs[batches/2], Batches: batches, Calls: n,
	}
}

// RunAll runs every micro-benchmark, each against a fresh heap.
func RunAll() []Result {
	out := make([]Result, 0, len(All))
	for _, b := range All {
		out = append(out, Run(b))
		runtime.GC()
	}
	return out
}
