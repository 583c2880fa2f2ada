package main

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"ix/bench/layers"
)

// clockOf names the clock each end-to-end metric is read on.
var clockOf = map[string]string{
	"wall_ns_per_op": "host", "setup_s": "host", "heap_live_mb": "host",
	"sim_ops_per_s": "sim",
}

func printLayers(w io.Writer, micro []layers.Result) {
	fmt.Fprintln(w, "layer micro-benchmarks (host clock; median of 5 batches, min..max, heap allocations per call)")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, r := range micro {
		fmt.Fprintf(tw, "  %s_%s\t%.1f %s\t%.1f..%.1f\t%.2f allocs\t%d calls/batch\n",
			r.Name, r.Unit, r.PerCall, r.Unit, r.Min, r.Max, r.Allocs, r.Calls)
	}
	tw.Flush()
}

// printRun prints every metric of a run by name and unit.
func printRun(w io.Writer, run *runResult, micro []layers.Result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  end-to-end\tclock\tvalue\tunit\tmin..max\treps\n")
	for _, d := range endToEnd {
		s := run.EndToEnd[d.Name]
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%s\t%.6g..%.6g\t%d\n", d.Name, clockOf[d.Name], s.Median, s.Unit, s.Min, s.Max, s.Reps)
	}
	fmt.Fprintf(tw, "  failed_share\tsim\t%.6g\tratio\t%d of %d\t\n", run.FailedShare, run.Failed, run.Attempted)
	tw.Flush()
	fmt.Fprintf(w, "  simulated latency p50 %.6g, p99 %.6g sim_us over %.0f samples; sim_digest %s\n",
		run.Layers["sim.p50_us"], run.Layers["sim.p99_us"], run.Layers["sim.latency_samples"], run.Digest)

	fmt.Fprintln(w, "  per layer")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	defs := countMetrics
	if run.Traced {
		defs = append(append([]metricDef{}, countMetrics...), traceMetrics...)
	}
	for _, d := range defs {
		if v, ok := run.Layers[d.Name]; ok {
			fmt.Fprintf(tw, "    %s\t%.6g\t%s\n", d.Name, v, d.Unit)
		}
	}
	tw.Flush()
	if micro != nil {
		printExplained(w, run, micro)
	}
	for _, p := range run.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// A term is one layer's share of the explained time per op.
type term struct {
	name string
	ns   float64
}

// explained closes the loop between the two tables: counts per op times
// the micro-benchmarks' time per call, beside the measured wall time per
// op. Each micro-benchmark's own engine events are taken out of its term
// so the event queue is charged once. What the sum leaves unexplained is
// the dispatch loops, the applications, timers and, with a large
// population, garbage collection and map growth.
func explained(run *runResult, micro []layers.Result) (terms []term, total float64) {
	m := map[string]float64{}
	for _, r := range micro {
		m[r.Name] = r.PerCall
	}
	l := run.Layers
	fire := m["sim.call_fire"]
	tcpNs := l["tcp.segs_per_op"] / 6 * m["tcp.rtt_64"] // one RTT there is 3 segments, each counted out and in
	if workloadByName(run.Workload).bulk {
		tcpNs = 2 * m["tcp.stream_64k"] // 64 KiB each way
	}
	add := func(name string, ns float64) {
		ns = max(ns, 0)
		terms = append(terms, term{name, ns})
		total += ns
	}
	add("sim: events/op x call_fire", l["sim.events_per_op"]*fire)
	add("fabric: frames/op x (switch_hop - 3 events)", l["fabric.frames_per_op"]*(m["fabric.switch_hop"]-3*fire))
	add("nicsim rx: rx_frames/op x deliver_take", l["nicsim.rx_frames_per_op"]*m["nicsim.deliver_take"])
	add("nicsim tx: frames/op x (tx_post - link_hop)", l["fabric.frames_per_op"]*(m["nicsim.tx_post"]-m["fabric.link_hop"]))
	add("netstack: rx_frames/op x input", l["nicsim.rx_frames_per_op"]*m["netstack.input"])
	add("tcp+wire: segments (or 2 x stream_64k when bulk)", tcpNs)
	add("stats: one hist_record", m["stats.hist_record"])
	return terms, total
}

func printExplained(w io.Writer, run *runResult, micro []layers.Result) {
	terms, total := explained(run, micro)
	measured := run.EndToEnd["wall_ns_per_op"].Median
	fmt.Fprintln(w, "  counts x micro-benchmarks against the measured wall_ns_per_op")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, t := range terms {
		fmt.Fprintf(tw, "    %s\t%.0f ns\n", t.name, t.ns)
	}
	fmt.Fprintf(tw, "    explained\t%.0f ns\n    measured\t%.0f ns\n    unexplained share\t%.3f\t(dispatch loops, applications, timers, GC)\n",
		total, measured, ratio(measured-total, measured))
	tw.Flush()
}

// benchmarkJSON renders BENCHMARK.json from the tables in this package.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
