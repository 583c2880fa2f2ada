// Command bench is the repository's benchmark: six fixed-seed workloads
// measured on two clocks — host (what the Go process costs) and sim
// (what the modelled machines would do) — with a per-layer table and a
// traced run. See README.md.
//
//	bash bench/run.sh                                   # all six workloads + layer micro-benchmarks
//	bash bench/run.sh -workload rpc_steady -trace 1     # one workload, traced
//	bash bench/run.sh -layers                           # the micro-benchmark table alone
//	bash bench/run.sh -compare a.json b.json            # judge b against a
//
// The driver's form, `--workload W --seed N --seconds S --trace 0|1`,
// runs one workload and ends with one JSON result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ix/bench/layers"
)

// outDir is where the result and trace files go, relative to the
// checkout root run.sh starts the binary in.
const outDir = "bench/out"

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload by name (default: all six)")
		seed         = flag.Int64("seed", defaultSeed, "seed of every cluster, fleet and load generator")
		seconds      = flag.Float64("seconds", runSeconds, "host seconds of measured windows per workload")
		trace        = flag.Int("trace", 0, "1 = traced run: spans, CPU-profile attribution, per-layer metrics")
		onlyLayers   = flag.Bool("layers", false, "print the layer micro-benchmark table and stop")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		out          = flag.String("out", "", "write the result JSON here (default bench/out/result.json for a full set)")
		child        = flag.Bool("child", false, "internal: run one rep in this process and print its report")
		benchJSON    = flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the metric tables")
	)
	flag.Parse()

	switch {
	case *benchJSON:
		os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	case *child:
		w := mustWorkload(*workloadName)
		var tr *tracer
		if *trace == 1 {
			tr = newTracer()
		}
		if err := json.NewEncoder(os.Stdout).Encode(runRep(w, *seed, 1, tr)); err != nil {
			fatal(err)
		}
	case *onlyLayers:
		micro := layers.RunAll()
		printLayers(os.Stdout, micro)
		if *out != "" {
			mergeOut(*out, newSuite(*seed, *seconds), func(s *suiteResult) { s.Micro = micro })
		}
	case *workloadName != "":
		os.Exit(driverRun(mustWorkload(*workloadName), *seed, *seconds, *trace == 1, *out))
	default:
		os.Exit(suiteRun(*seed, *seconds, *trace == 1, *out))
	}
}

func mustWorkload(name string) *workload {
	w := workloadByName(name)
	if w == nil {
		fatal(fmt.Sprintf("unknown workload %q (have %v)", name, workloadNames()))
	}
	return w
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "bench:", v)
	os.Exit(2)
}

func newSuite(seed int64, seconds float64) *suiteResult {
	return &suiteResult{
		Note: modelNote, When: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Bounds: endToEnd,
	}
}

// mergeOut updates the result file in place (starting from s when there
// is none yet), so `-layers -out f` and a workload run can fill the same
// document.
func mergeOut(path string, s *suiteResult, edit func(*suiteResult)) {
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, s); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	edit(s)
	if err := writeJSON(path, s); err != nil {
		fatal(err)
	}
}

// driverRun is the benchmark contract's form: one workload, a report for
// people, and as the last line of standard output the result object.
// With trace the metrics are the per-layer ones, otherwise the
// end-to-end ones.
func driverRun(w *workload, seed int64, seconds float64, traced bool, out string) int {
	fmt.Printf("%s (op = %s), seed %d, GOMAXPROCS %d of %d CPUs\n%s\n", w.name, w.op, seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), modelNote)
	run, err := runWorkload(w, seed, seconds, traced, os.Stdout)
	if err != nil {
		fatal(err)
	}
	var micro []layers.Result
	if traced {
		// The per-layer metrics include the micro-benchmarks; they do
		// not depend on the workload but every traced run reports them.
		micro = layers.RunAll()
		for _, r := range micro {
			run.Layers[r.Name+"_"+r.Unit] = r.PerCall
		}
	}
	printRun(os.Stdout, run, micro)
	if out != "" {
		mergeOut(out, newSuite(seed, seconds), func(s *suiteResult) {
			s.Runs = append(s.Runs, run)
			if micro != nil {
				s.Micro = micro
			}
		})
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(run.Problems) == 0, Attempted: max(run.Attempted, 1), Failed: run.Failed, Metrics: map[string]value{}}
	if traced {
		for _, d := range perLayer {
			line.Metrics[d.Name] = value{run.Layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = value{run.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// suiteRun runs the full set: the micro-benchmark table, then the six
// workloads (each traced as well when asked), one result document.
func suiteRun(seed int64, seconds float64, traced bool, out string) int {
	if out == "" {
		out = outDir + "/result.json"
	}
	suite := newSuite(seed, seconds)
	fmt.Printf("ix bench: %d workloads, seed %d, %g s of measured windows each, GOMAXPROCS %d of %d CPUs, %s\n%s\n\n",
		len(workloads), seed, seconds, suite.GOMAXPROCS, suite.NumCPU, suite.GoVersion, modelNote)
	suite.Micro = layers.RunAll()
	printLayers(os.Stdout, suite.Micro)
	status := 0
	for i := range workloads {
		w := &workloads[i]
		fmt.Printf("\n%s (op = %s)\n", w.name, w.op)
		run, err := runWorkload(w, seed, seconds, false, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if traced {
			// A traced run keeps its own untraced rep for the overhead
			// figure; fold its span and share metrics into the timed run.
			t, err := runWorkload(w, seed, 0, true, os.Stdout)
			if err != nil {
				fatal(err)
			}
			for _, d := range traceMetrics {
				run.Layers[d.Name] = t.Layers[d.Name]
			}
			run.Traced = true
			run.Problems = append(run.Problems, t.Problems...)
		}
		printRun(os.Stdout, run, suite.Micro)
		if len(run.Problems) > 0 {
			status = 1
		}
		suite.Runs = append(suite.Runs, run)
	}
	if err := writeJSON(out, suite); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult written to %s\n", out)
	if status != 0 {
		fmt.Println("FAILED: at least one output check failed (see the problems listed above)")
	}
	return status
}
