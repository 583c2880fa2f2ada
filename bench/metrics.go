package main

import (
	"sort"

	"ix/bench/layers"
)

// A metricDef names one reported number. BENCHMARK.json is generated
// from these tables (-benchmark-json) and a unit test holds the two
// together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
	// simUs is the unit of a simulated latency: microseconds on the sim
	// clock. Spelling the clock into the unit keeps a simulated time from
	// being read, or judged, as a host timing.
	simUs = "sim_us"
)

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds): reps are added until their windows sum to it.
const runSeconds = 10

// endToEnd are the metrics a user of the simulator sees, the same names
// on every workload. Two clocks: wall_ns_per_op, setup_s and
// heap_live_mb are the host's cost of simulating; sim_ops_per_s is what
// the modelled machines did. Bound is the share of the parent's median by
// which a metric may worsen before a change is a regression; the host
// bounds are sized to the sandbox's noise (README, "Why the host bounds
// are wide"), the sim bound only has to cover the spread between seeds.
//
// The simulated latency (sim.p50_us, sim.p99_us) is printed beside these
// and checked against the workload's SLA, but is a per-layer metric: on
// the echo workloads it comes out the same to the nanosecond whatever the
// seed, and the driver refuses a time that reads the same on every run.
var endToEnd = []metricDef{
	{Name: "wall_ns_per_op", Unit: "ns", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: lower, Bound: 0.07},
	{Name: "sim_ops_per_s", Unit: "ops/s", Better: higher, Bound: 0.01},
}

// countMetrics are read off public counters at the window boundaries;
// for a fixed seed all but the runtime.* ones repeat exactly.
var countMetrics = []metricDef{
	{Name: "sim.events_per_op", Unit: "count", Better: lower},
	{Name: "sim.events_per_wall_s", Unit: "1/s", Better: higher},
	{Name: "sim.p50_us", Unit: simUs, Better: lower},
	{Name: "sim.p99_us", Unit: simUs, Better: lower},
	{Name: "sim.latency_samples", Unit: "count", Better: higher},
	{Name: "fabric.frames_per_op", Unit: "count", Better: lower},
	{Name: "fabric.tx_dropped", Unit: "count", Better: lower},
	{Name: "fabric.frames_leaked", Unit: "count", Better: lower},
	{Name: "nicsim.rx_frames_per_op", Unit: "count", Better: lower},
	{Name: "nicsim.rx_drops", Unit: "count", Better: lower},
	{Name: "netstack.rx_dropped", Unit: "count", Better: lower},
	{Name: "tcp.segs_per_op", Unit: "count", Better: lower},
	{Name: "tcp.retransmits", Unit: "count", Better: lower},
	{Name: "tcp.ooo_segs", Unit: "count", Better: lower},
	{Name: "tcp.opens_per_op", Unit: "count", Better: lower},
	{Name: "tcp.conns_open", Unit: "count", Better: higher},
	{Name: "core.cycles_per_op", Unit: "count", Better: lower},
	{Name: "core.mean_batch", Unit: "count", Better: higher},
	{Name: "core.kernel_share", Unit: "ratio", Better: lower},
	{Name: "mem.txchunks_leaked", Unit: "count", Better: lower},
	{Name: "memprobe.bytes_per_conn", Unit: "B", Better: lower},
	{Name: "mutilate.dropped_share", Unit: "ratio", Better: lower},
	{Name: "mutilate.load_p99_us", Unit: simUs, Better: lower},
	{Name: "memcached.hit_share", Unit: "ratio", Better: higher},
	{Name: "httpkv.errors", Unit: "count", Better: lower},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: lower},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: lower},
	{Name: "runtime.heap_bytes_per_conn", Unit: "B", Better: lower},
}

// traceMetrics come from the traced rep: span totals and CPU shares.
var traceMetrics = func() []metricDef {
	out := []metricDef{
		{Name: "harness.build_s", Unit: "s", Better: lower},
		{Name: "harness.ramp_s", Unit: "s", Better: lower},
		{Name: "harness.warmup_s", Unit: "s", Better: lower},
		{Name: "harness.window_s", Unit: "s", Better: lower},
		{Name: "harness.drain_s", Unit: "s", Better: lower},
		{Name: "sim.step_ns_per_event", Unit: "ns", Better: lower},
		{Name: "fabric.deliver_ns_per_frame", Unit: "ns", Better: lower},
		{Name: "apps.handler_ns_per_op", Unit: "ns", Better: lower},
		{Name: "apps.send_ns_per_op", Unit: "ns", Better: lower},
	}
	for _, class := range profileClasses {
		out = append(out, metricDef{Name: class, Unit: "ratio", Better: lower})
	}
	return append(out, metricDef{Name: "trace.overhead_share", Unit: "ratio", Better: lower})
}()

// layerMetrics are the micro-benchmarks' ns per call (the allocations per
// call are printed and written beside them, but an optimisation moves the
// time first, so only that is in BENCHMARK.json).
var layerMetrics = func() []metricDef {
	var out []metricDef
	for _, b := range layers.All {
		out = append(out, metricDef{Name: b.Name + "_" + b.Unit, Unit: b.Unit, Better: lower})
	}
	return out
}()

// perLayer is every per-layer metric, in BENCHMARK.json's order.
var perLayer = append(append(append([]metricDef{}, countMetrics...), layerMetrics...), traceMetrics...)

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
