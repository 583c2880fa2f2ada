package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"ix/bench/layers"
)

// A summary is one host-clock metric over the reps of a run. Q1 and Q3
// are the quartiles as Python's statistics.quantiles(values, n=4) gives
// them; their distance is the run's spread.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Reps   int     `json:"reps"`
}

func summarize(unit string, vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{Unit: unit, Median: median(s), Q1: quantile(s, 1), Q3: quantile(s, 3), Min: s[0], Max: s[len(s)-1], Reps: len(s)}
}

// exactly is the summary of a value that is the same on every rep.
func exactly(unit string, v float64, reps int) summary {
	return summary{Unit: unit, Median: v, Q1: v, Q3: v, Min: v, Max: v, Reps: reps}
}

// quantile is the k-th quartile of a sorted, non-empty slice: the point
// at position k(n+1)/4 counting from 1, interpolated, clamped to the ends.
func quantile(sorted []float64, k int) float64 {
	n := len(sorted)
	pos := float64(k*(n+1))/4 - 1
	i := int(math.Floor(pos))
	switch {
	case i < 0:
		return sorted[0]
	case i >= n-1:
		return sorted[n-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// A runResult is one workload's run: every rep, the end-to-end metrics
// over them, the per-layer table and the output checks.
type runResult struct {
	Workload string `json:"workload"`
	Op       string `json:"op"`
	Seed     int64  `json:"seed"`
	// EndToEnd holds the end-to-end metrics by name. Host metrics are
	// medians over the reps with their spread; sim_ops_per_s is the same
	// on every rep (the run fails otherwise) and has no spread.
	EndToEnd map[string]summary `json:"end_to_end"`
	// FailedShare is failed / attempted (an end-to-end number too, but 0
	// on a healthy tree, so the driver reads it from the result line's
	// counts instead of a metric that could never be compared).
	FailedShare float64 `json:"failed_share"`
	Attempted   uint64  `json:"attempted"`
	Failed      uint64  `json:"failed"`
	Digest      string  `json:"sim_digest"`
	// Layers is the per-layer table: counts from the untraced reps
	// (medians for the host-side runtime.* ones), and on a traced run the
	// span and CPU-share metrics.
	Layers map[string]float64 `json:"layers"`
	Traced bool               `json:"traced"`
	// Problems lists every failed check (empty = correct).
	Problems []string     `json:"problems"`
	Reps     []*repResult `json:"reps"`
}

// minReps is the fewest reps a run reports a median over; maxOverrun
// caps a run whose set-up outweighs its windows (conn_scale's 250k ramp)
// at that multiple of the seconds asked for.
const (
	minReps    = 3
	maxOverrun = 1.6
)

// spawnRep runs one rep in a fresh child process — a fresh heap, GC
// state and scheduler every time — and decodes its report.
func spawnRep(w *workload, seed int64, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil { // Run waits for the child to end
		return nil, fmt.Errorf("rep of %s: %w", w.name, err)
	}
	res := &repResult{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("rep of %s: decoding its report: %w", w.name, err)
	}
	return res, nil
}

// runWorkload is one run of w: untraced reps until their measured
// windows sum to seconds of host time (at least minReps, and no longer
// than maxOverrun x seconds in all), then, when traced, one more rep
// under the tracer. log receives progress lines.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, log io.Writer) (*runResult, error) {
	run := &runResult{
		Workload: w.name, Op: w.op, Seed: seed, Traced: traced,
		EndToEnd: map[string]summary{}, Layers: map[string]float64{}, Problems: []string{},
	}
	want := minReps
	if traced {
		// The traced run wants the exact counts and one untraced window
		// to measure its own overhead against, not a median.
		want, seconds = 1, 0
	}
	measured, start := 0.0, time.Now()
	for len(run.Reps) < want || (measured < seconds && time.Since(start).Seconds() < maxOverrun*seconds) {
		rep, err := spawnRep(w, seed, false)
		if err != nil {
			return nil, err
		}
		run.Reps = append(run.Reps, rep)
		measured += float64(rep.WindowWallNs) / 1e9
		fmt.Fprintf(log, "  rep %d: window %.3f s host for %d ops, set-up %.3f s, digest %s\n",
			len(run.Reps), float64(rep.WindowWallNs)/1e9, rep.Ops, rep.SetupS, rep.Digest)
	}

	first := run.Reps[0]
	var wall, setup, heap []float64
	hostLayers := map[string][]float64{}
	for i, rep := range run.Reps {
		wall = append(wall, ratio(float64(rep.WindowWallNs), float64(rep.Ops)))
		setup = append(setup, rep.SetupS)
		heap = append(heap, rep.HeapLiveMB)
		for _, c := range rep.Checks {
			run.Problems = append(run.Problems, fmt.Sprintf("rep %d: %s", i+1, c))
		}
		if rep.Digest != first.Digest {
			run.Problems = append(run.Problems, fmt.Sprintf("rep %d: sim_digest %s differs from rep 1's %s: the simulation is not a function of the seed", i+1, rep.Digest, first.Digest))
		}
		for name, v := range rep.Layers {
			hostLayers[name] = append(hostLayers[name], v)
		}
	}
	run.EndToEnd["wall_ns_per_op"] = summarize("ns", wall)
	run.EndToEnd["setup_s"] = summarize("s", setup)
	run.EndToEnd["heap_live_mb"] = summarize("MB", heap)
	simOps := ratio(float64(first.Ops), float64(first.SimWindowNs)/1e9)
	run.EndToEnd["sim_ops_per_s"] = exactly("ops/s", simOps, len(run.Reps))
	run.Attempted, run.Failed, run.Digest = first.Attempted, first.Failed, first.Digest
	run.FailedShare = ratio(float64(first.Failed), float64(first.Attempted))
	for name, vals := range hostLayers {
		sort.Float64s(vals)
		run.Layers[name] = median(vals)
	}
	run.Layers["sim.p50_us"] = first.SimP50Us
	run.Layers["sim.p99_us"] = first.SimP99Us
	run.Layers["sim.latency_samples"] = float64(first.Samples)

	if traced {
		rep, err := spawnRep(w, seed, true)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "  traced rep: window %.3f s host, %d CPU samples, digest %s\n",
			float64(rep.WindowWallNs)/1e9, rep.Trace.Samples, rep.Digest)
		if rep.Digest != first.Digest {
			run.Problems = append(run.Problems, fmt.Sprintf("traced rep: sim_digest %s differs from the untraced %s: tracing changed the simulation", rep.Digest, first.Digest))
		}
		for _, c := range rep.Checks {
			run.Problems = append(run.Problems, "traced rep: "+c)
		}
		for name, v := range rep.Trace.Metrics {
			run.Layers[name] = v
		}
		run.Layers["trace.overhead_share"] = ratio(float64(rep.WindowWallNs-first.WindowWallNs), float64(first.WindowWallNs))
		attributed := 1 - run.Layers["runtime.other_share"]
		if rep.Trace.Samples > 0 && attributed < 0.90 {
			run.Problems = append(run.Problems, fmt.Sprintf("traced rep: only %.1f%% of CPU samples fall in a named layer or runtime class", 100*attributed))
		}
		if err := writeTrace(w.name, seed, rep); err != nil {
			return nil, err
		}
		rep.Trace.Spans = nil // written to the trace file; too bulky for the result
		run.Reps = append(run.Reps, rep)
	}
	return run, nil
}

func writeTrace(workload string, seed int64, rep *repResult) error {
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Note     string             `json:"note"`
		Metrics  map[string]float64 `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{
		Workload: workload, Seed: seed,
		Note:    fmt.Sprintf("start and end are host ns since the tracer started; parent is a span id or -1; rep is the stage; the first %d spans of each name are kept, the metrics aggregate all of them", keepPerKind),
		Metrics: rep.Trace.Metrics, Spans: rep.Trace.Spans,
	}
	return writeJSON(outDir+"/trace_"+workload+".json", doc)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// A suiteResult is what -out holds: every workload's run and the layer
// micro-benchmarks, in one document -compare reads back.
type suiteResult struct {
	Note       string          `json:"note"`
	When       string          `json:"when"`
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Seed       int64           `json:"seed"`
	Seconds    float64         `json:"seconds"`
	Bounds     []metricDef     `json:"end_to_end"`
	Runs       []*runResult    `json:"runs"`
	Micro      []layers.Result `json:"layers,omitempty"`
}

// modelNote goes on everything the benchmark prints: the repository holds
// no hardware reference at this scale, so simulated numbers are stated
// without an error figure against the paper.
const modelNote = "model unvalidated at this scale: the repository holds no hardware reference for these workloads, so simulated numbers carry no error figure against the paper"
