package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ix/internal/stats"
)

// smokeScale shrinks every frozen simulated length to a couple of
// milliseconds (and conn_scale's population to a few thousand).
const smokeScale = 0.015

// TestWorkloadsSmoke runs each workload over a ~2 ms window and checks
// that it passes its own output checks and reports every named metric.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep := runRep(w, defaultSeed, smokeScale, nil)
			if len(rep.Checks) != 0 {
				t.Fatalf("output checks failed: %v", rep.Checks)
			}
			if rep.Ops == 0 || rep.WindowWallNs <= 0 || rep.SetupS <= 0 || rep.HeapLiveMB <= 0 || rep.SimP99Us <= 0 {
				t.Fatalf("an end-to-end input is zero: %+v", rep)
			}
			for _, d := range countMetrics {
				if d.Name == "sim.p50_us" || d.Name == "sim.p99_us" || d.Name == "sim.latency_samples" {
					continue // filled in by the run, from the rep's own fields
				}
				if _, ok := rep.Layers[d.Name]; !ok {
					t.Errorf("count metric %s (%s) is missing", d.Name, d.Unit)
				}
			}
			for _, name := range []string{"harness.build_s", "harness.ramp_s", "harness.warmup_s", "harness.window_s", "harness.drain_s"} {
				if _, ok := rep.Phases[name]; !ok {
					t.Errorf("phase %s is missing", name)
				}
			}
		})
	}
}

// TestDigest checks that the digest is a function of the seed: equal for
// equal seeds, traced or not, and different when the seed moves the
// simulation.
func TestDigest(t *testing.T) {
	w := workloadByName("memc_etc")
	a := runRep(w, 7, smokeScale, nil)
	b := runRep(w, 7, smokeScale, nil)
	if a.Digest != b.Digest || a.Digest == "" {
		t.Fatalf("same seed, digests %q and %q", a.Digest, b.Digest)
	}
	if c := runRep(w, 8, smokeScale, nil); c.Digest == a.Digest {
		t.Fatalf("seeds 7 and 8 share digest %s", a.Digest)
	}
	traced := runRep(w, 7, smokeScale, newTracer())
	if traced.Digest != a.Digest {
		t.Fatalf("tracing changed the simulation: digest %s, untraced %s", traced.Digest, a.Digest)
	}
}

// TestTracedRep checks the traced rep's table: every trace metric but the
// overhead (which needs an untraced rep beside it) is present, spans nest,
// and the CPU shares sum to 1.
func TestTracedRep(t *testing.T) {
	rep := runRep(workloadByName("facade_httpkv"), defaultSeed, 0.3, newTracer())
	if len(rep.Checks) != 0 {
		t.Fatalf("output checks failed: %v", rep.Checks)
	}
	tr := rep.Trace
	for _, d := range traceMetrics {
		if _, ok := tr.Metrics[d.Name]; !ok && d.Name != "trace.overhead_share" {
			t.Errorf("trace metric %s is missing", d.Name)
		}
	}
	for _, name := range []string{"sim.step_ns_per_event", "apps.handler_ns_per_op", "apps.send_ns_per_op", "fabric.deliver_ns_per_frame"} {
		if tr.Metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, tr.Metrics[name])
		}
	}
	if tr.Samples > 0 {
		sum := 0.0
		for _, class := range profileClasses {
			sum += tr.Metrics[class]
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("cpu shares sum to %v", sum)
		}
	}
	for _, s := range tr.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			p := tr.Spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
		}
	}
}

// --- profile attribution ---------------------------------------------

// pb is just enough of a protobuf encoder to can a profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }
func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

// cannedProfile encodes stacks (leaf first) with their sample counts,
// one function per location, gzip-compressed as runtime/pprof writes it.
func cannedProfile(stacks map[string]int64) []byte {
	strs := []string{""}
	funcID := map[string]uint64{}
	var doc pb
	for stack, count := range stacks {
		var locs pb
		for _, fn := range strings.Split(stack, " < ") {
			if funcID[fn] == 0 {
				funcID[fn] = uint64(len(funcID) + 1)
				strs = append(strs, fn)
				var f, line, loc pb
				f.uint(1, funcID[fn])
				f.uint(2, uint64(len(strs)-1))
				doc.bytes(5, f.Bytes())
				line.uint(1, funcID[fn])
				loc.uint(1, funcID[fn])
				loc.bytes(4, line.Bytes())
				doc.bytes(4, loc.Bytes())
			}
			locs.varint(funcID[fn])
		}
		var values, sample pb
		values.varint(uint64(count))
		values.varint(uint64(count) * 10_000_000)
		sample.bytes(1, locs.Bytes())
		sample.bytes(2, values.Bytes())
		doc.bytes(2, sample.Bytes())
	}
	for _, s := range strs {
		doc.bytes(6, []byte(s))
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Write(doc.Bytes())
	zw.Close()
	return out.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	raw := cannedProfile(map[string]int64{
		// The engine's own work.
		"ix/internal/sim.(*eventHeap).siftDown < ix/internal/sim.(*Engine).Step < main.main": 30,
		// A neutral library leaf is its caller's.
		"encoding/binary.bigEndian.Uint16 < ix/internal/wire.(*TCPHeader).Unmarshal < ix/internal/tcp.(*Stack).Input": 10,
		// Runtime classes win over the layer that called them...
		"internal/runtime/maps.(*Map).getWithKey < ix/internal/tcp.(*Stack).Input":                    8,
		"runtime.memmove < ix/internal/libix.(*conn).Send":                                            7,
		"runtime.mallocgc < runtime.newobject < ix/internal/apps/echo.(*client).OnConnected":          5,
		"runtime.futex < runtime.notesleep < runtime.stopm < runtime.findRunnable < runtime.schedule": 4,
		// ...unless the benchmark's own wrapper asked for the work.
		"internal/runtime/maps.(*Map).getWithKey < main.(*tracedHandler).conn < ix/internal/libix.(*proc).deliver": 6,
		// GC anywhere in the stack is GC, assists included.
		"runtime.scanobject < runtime.gcDrain < runtime.gcBgMarkWorker":                                12,
		"runtime.greyobject < runtime.gcAssistAlloc < runtime.mallocgc < ix/internal/tcp.(*Conn).Send": 3,
		// Sub-packages fold into their layer; app is apps.
		"ix/internal/sim/shard.Add64 < ix/internal/stats.(*Histogram).Record": 9,
		"ix/internal/app.Handler.OnRecv":                                      2,
		// Nothing recognisable.
		"runtime.main": 4,
	})
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	if n := p.attribute(got); n != 100 {
		t.Fatalf("attributed %d samples, want 100", n)
	}
	want := map[string]float64{
		"sim.cpu_share": 39, "wire.cpu_share": 10, "runtime.map_share": 8, "runtime.memmove_share": 7,
		"runtime.malloc_share": 5, "runtime.sched_share": 4, "bench.cpu_share": 6, "runtime.gc_share": 15,
		"apps.cpu_share": 2, "runtime.other_share": 4,
	}
	for class, v := range want {
		if got[class] != v {
			t.Errorf("%s = %v samples, want %v", class, got[class], v)
		}
	}
	sum := 0.0
	for _, class := range profileClasses {
		sum += got[class]
	}
	if sum != 100 {
		t.Errorf("classes hold %v samples, want all 100", sum)
	}
	if _, err := parseProfile([]byte{0x0a, 0x7f}); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// --- medians, bounds, verdicts -----------------------------------------

func TestSummarizeAndJudge(t *testing.T) {
	// statistics.quantiles([1, 3, 5, 9], n=4) is [1.5, 4.0, 8.0].
	s := summarize("ns", []float64{5, 1, 3, 9})
	if s.Median != 4 || s.Q1 != 1.5 || s.Q3 != 8 || s.Min != 1 || s.Max != 9 || s.Reps != 4 {
		t.Fatalf("summarize = %+v", s)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) is [1.5, 4.0, 12.0]; three values give their ends.
	if s := summarize("ns", []float64{16, 1, 8, 2, 4}); s.Q1 != 1.5 || s.Q3 != 12 {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize("ns", []float64{2, 1, 3}); s.Q1 != 1 || s.Q3 != 3 {
		t.Fatalf("summarize = %+v", s)
	}
	around := func(v, by float64) summary {
		return summary{Median: v, Q1: v * (1 - by), Q3: v * (1 + by), Min: v * (1 - 2*by), Max: v * (1 + 2*by), Reps: 5}
	}
	tight := func(v float64) summary { return around(v, 0.01) }
	wide := func(v float64) summary { return around(v, 0.2) }
	exactly := func(v float64) summary { return exactly("", v, 5) }
	lo := metricDef{Name: "wall_ns_per_op", Better: lower, Bound: 0.10}
	hi := metricDef{Name: "sim_ops_per_s", Better: higher, Bound: 0.01}
	cases := []struct {
		name  string
		d     metricDef
		a, b  summary
		exact bool
		want  string
	}{
		{"within the bound", lo, tight(100), tight(104), false, verdictUnchanged},
		{"slower past the bound", lo, tight(100), tight(112), false, verdictWorse},
		{"faster past the bound", lo, tight(100), tight(85), false, verdictBetter},
		{"noisy and inside the bound", lo, wide(100), tight(104), false, verdictUnresolved},
		{"noisy but plainly slower", lo, wide(100), tight(130), false, verdictWorse},
		{"noisy and faster is not a gain", lo, tight(100), wide(85), false, verdictUnresolved},
		{"higher is better: fewer ops", hi, exactly(100), exactly(95), false, verdictWorse},
		{"higher is better: more ops", hi, exactly(100), exactly(105), false, verdictBetter},
		{"same seed: any loss is a model change", hi, exactly(100), exactly(99.9), true, verdictWorse},
		{"same seed: identical", hi, exactly(100), exactly(100), true, verdictUnchanged},
	}
	for _, c := range cases {
		if got, _ := judge(c.d, c.a, c.b, c.exact); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSuites(t *testing.T) {
	mk := func(wall, failedShare float64, digest string) *suiteResult {
		run := &runResult{Workload: "rpc_steady", FailedShare: failedShare, Digest: digest, EndToEnd: map[string]summary{}}
		for _, d := range endToEnd {
			run.EndToEnd[d.Name] = exactly(d.Unit, 100, 3)
		}
		run.EndToEnd["wall_ns_per_op"] = summary{Median: wall, Q1: wall * 0.99, Q3: wall * 1.01, Min: wall * 0.98, Max: wall * 1.02, Reps: 3}
		return &suiteResult{Seed: 1, Runs: []*runResult{run}}
	}
	var out bytes.Buffer
	if st := compareSuites(mk(100, 0, "d"), mk(103, 0, "d"), &out); st != 0 {
		t.Errorf("3%% slower inside a 10%% bound exits %d:\n%s", st, out.String())
	}
	if st := compareSuites(mk(100, 0, "d"), mk(140, 0, "d"), &out); st == 0 {
		t.Error("40% slower exits 0")
	}
	if st := compareSuites(mk(100, 0, "d"), mk(100, 0.001, "d"), &out); st == 0 {
		t.Error("a larger failed_share exits 0")
	}
	out.Reset()
	compareSuites(mk(100, 0, "d"), mk(100, 0, "e"), &out)
	if !strings.Contains(out.String(), "the model changed") {
		t.Errorf("a changed digest is not reported:\n%s", out.String())
	}
}

// --- BENCHMARK.json ----------------------------------------------------

// TestBenchmarkJSON holds the checked-in BENCHMARK.json to the metric
// tables it is generated from, and both to the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -benchmark-json > BENCHMARK.json`")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(onDisk, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(doc))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (%q) breaks the naming rules or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range perLayer {
		check(d)
	}
	if !hasSetup || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("setup_s present %v, %d per-layer metrics, %d workloads", hasSetup, len(perLayer), len(workloads))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q breaks the naming rules", w.name)
		}
		seen[w.name] = true
	}
}

func TestQuantileInBucket(t *testing.T) {
	h := stats.NewHistogram()
	for i := 0; i < 10_000; i++ {
		h.Record(time.Duration(10_000 + i))
	}
	// The true p99 is 19 900 ns; Quantile alone answers 19 456, the lower
	// bound of a 512 ns bucket.
	if got := quantileInBucket(h, 0.99); math.Abs(got-19.9) > 0.01 {
		t.Errorf("p99 = %v us, want 19.9 within 10 ns", got)
	}
	if low := us(h.Quantile(0.99)); low != 19.456 {
		t.Errorf("Quantile(0.99) = %v us: the bucket layout this interpolates over has changed", low)
	}
}
