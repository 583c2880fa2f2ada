package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"time"

	"ix/internal/app"
	"ix/internal/netstack"
	"ix/internal/stats"
)

// A repResult is what one rep — one fresh process, one set-up, one
// measured window per stage — reports. Host-clock fields are the host's
// cost of simulating; sim-clock fields are what the modelled machines
// did, and repeat exactly for a fixed seed.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`

	// Host clock.
	SetupS       float64 `json:"setup_s"`
	WindowWallNs int64   `json:"window_wall_ns"`
	HeapLiveMB   float64 `json:"heap_live_mb"`

	// Sim clock.
	Ops         uint64  `json:"ops"`
	SimWindowNs int64   `json:"sim_window_ns"`
	SimP50Us    float64 `json:"sim_p50_us"`
	SimP99Us    float64 `json:"sim_p99_us"`
	SimMeanUs   float64 `json:"sim_mean_us"`
	Samples     uint64  `json:"samples"`
	Attempted   uint64  `json:"attempted"`
	Failed      uint64  `json:"failed"`
	Digest      string  `json:"sim_digest"`

	// Layers holds the per-layer count metrics of the window, by name.
	Layers map[string]float64 `json:"layers"`
	// Phases holds the driver phases' host seconds, by span name.
	Phases map[string]float64 `json:"phases"`
	// Trace is present on a traced rep only.
	Trace *traceResult `json:"trace,omitempty"`
	// Checks lists every output check that failed (empty = correct).
	Checks []string `json:"checks"`
}

// counters is a snapshot of the public counters the layers keep, summed
// over every host of a stage. Window metrics are differences of two.
type counters struct {
	events, forwarded, txDropped           uint64
	nicRx, nicDrops, stackRxDropped        uint64
	segs, retransmits, oooSegs, acceptedOK uint64
	cycles, rxPackets                      uint64
}

func (st *stage) eachStack(fn func(*netstack.Stack)) {
	for _, dp := range st.ixs {
		for i := 0; i < dp.Threads(); i++ {
			fn(dp.Thread(i).Stack())
		}
	}
	for _, lh := range st.linuxes {
		fn(lh.Stack())
	}
	for _, mh := range st.mtcps {
		for i := 0; i < mh.Cores(); i++ {
			fn(mh.Stack(i))
		}
	}
}

func (st *stage) snapshot() counters {
	c := counters{events: st.cl.Eng.Processed, forwarded: st.cl.Switch.Forwarded}
	for _, h := range st.hosts {
		c.nicRx += h.NIC().RxFrames
		c.nicDrops += h.NIC().RxDrops
		c.txDropped += st.cl.EgressDrops(h)
	}
	st.eachStack(func(s *netstack.Stack) {
		c.stackRxDropped += s.RxDropped
		t := s.TCP()
		c.segs += t.SegsIn + t.SegsOut
		c.retransmits += t.Retransmits
		c.oooSegs += t.OutOfOrderSegs
		c.acceptedOK += t.AcceptedConns
	})
	for _, dp := range st.ixs {
		for i := 0; i < dp.Threads(); i++ {
			c.cycles += dp.Thread(i).Cycles
			c.rxPackets += dp.Thread(i).RxPackets
		}
	}
	return c
}

// serverConns is the first host's open-connection count.
func (st *stage) serverConns() int {
	switch {
	case len(st.ixs) > 0:
		return st.ixs[0].ConnCount()
	case len(st.mtcps) > 0:
		return st.mtcps[0].ConnCount()
	}
	return st.linuxes[0].ConnCount()
}

// hostStats are the Go runtime's own meters at a window boundary.
type hostStats struct {
	mallocs, allocBytes uint64
	numGC               uint32
	pauseNs             uint64
	gcCPUSeconds        float64
}

func readHostStats() hostStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	hs := hostStats{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		hs.gcCPUSeconds = sample[0].Value.Float64()
	}
	return hs
}

// runRep executes one rep of w: every stage built, ramped, warmed,
// measured over its frozen simulated window, drained and checked. scale
// shrinks the simulated lengths (unit-test smoke runs only); tr, when
// non-nil, makes this the traced rep.
func runRep(w *workload, seed int64, scale float64, tr *tracer) *repResult {
	res := &repResult{
		Workload: w.name, Seed: seed,
		Layers: map[string]float64{}, Phases: map[string]float64{},
		Checks: []string{},
	}
	wrap := wrapFactory(func(f app.Factory) app.Factory { return f })
	if tr != nil {
		wrap = tr.wrapFactory
	}
	lat := stats.NewHistogram()
	var sim []string // every simulated number read, in order, for the digest
	simf := func(name string, v float64) {
		sim = append(sim, name+"="+strconv.FormatFloat(v, 'g', -1, 64))
	}
	var profiles [][]byte
	var win counters
	var host hostStats
	var kernelNs, userNs time.Duration
	var heapLive uint64
	var heapPerConn float64

	for si, build := range w.stages {
		t0 := time.Now()
		span := tr.begin("harness.build_s")
		st := build(seed+int64(si), scale, wrap)
		if tr != nil {
			tr.interposeServer(st)
		}
		st.cl.Start()
		res.Phases["harness.build_s"] += tr.end(span, t0)

		run := st.cl.Run
		if tr != nil {
			run = func(d time.Duration) { tr.runSliced(st.cl.Eng, d) }
		}
		t1 := time.Now()
		span = tr.begin("harness.ramp_s")
		if st.ramp != nil {
			targeted, established := st.ramp(run)
			simf("established", float64(established))
			if established != targeted {
				res.Checks = append(res.Checks, fmt.Sprintf("established %d of %d targeted connections", established, targeted))
				res.Failed += uint64(targeted - established)
			}
		}
		res.Phases["harness.ramp_s"] += tr.end(span, t1)

		t2 := time.Now()
		span = tr.begin("harness.warmup_s")
		run(st.warmup + phaseJitter(seed))
		res.Phases["harness.warmup_s"] += tr.end(span, t2)

		// The measured window. Every window starts from a collected heap,
		// so whether the set-up's garbage triggers a cycle inside it is not
		// left to chance; the collector runs in the window as often as the
		// window's own allocation makes it. The boundary snapshots sit
		// outside the timed interval.
		runtime.GC()
		st.begin()
		before := st.snapshot()
		var profile bytes.Buffer
		if tr != nil {
			// pprof samples at 100 Hz, some 250 samples a window: too few
			// to tell a 20 % share from a 24 % one. Setting the rate first
			// makes pprof's own request for 100 Hz a refused no-op (the
			// runtime says so once on standard error).
			runtime.SetCPUProfileRate(profileHz)
			if err := pprof.StartCPUProfile(&profile); err != nil {
				res.Checks = append(res.Checks, "cpu profile: "+err.Error())
			}
			tr.openWindow()
		}
		h0 := readHostStats()
		tw := time.Now()
		span = tr.begin("harness.window_s")
		run(st.window)
		wall := time.Since(tw)
		res.Phases["harness.window_s"] += tr.end(span, tw)
		hs := readHostStats()
		if tr != nil {
			tr.closeWindow()
			pprof.StopCPUProfile()
			profiles = append(profiles, profile.Bytes())
		}
		after := st.snapshot()
		res.SetupS += tw.Sub(t0).Seconds()
		res.WindowWallNs += wall.Nanoseconds()
		res.SimWindowNs += st.window.Nanoseconds()
		res.Ops += st.ops()
		lat.Merge(st.latency())

		win.add(after.sub(before))
		host.add(hs.sub(h0))
		for _, dp := range st.ixs {
			k, u := dp.CPUBreakdown()
			kernelNs, userNs = kernelNs+k, userNs+u
		}
		conns := st.serverConns()
		res.Layers["tcp.conns_open"] += float64(conns)
		res.Layers["memprobe.bytes_per_conn"] = st.cl.HostFootprint(st.server).PerConn()
		if st.extra != nil {
			st.extra(res.Layers)
		}

		// Live heap with the testbed still reachable: what the population
		// pins, not what the window churned.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapLive = max(heapLive, ms.HeapAlloc)
		heapPerConn = ratio(float64(ms.HeapAlloc), float64(conns))

		t3 := time.Now()
		span = tr.begin("harness.drain_s")
		st.stop()
		run(st.drain)
		res.Phases["harness.drain_s"] += tr.end(span, t3)
		res.Failed += st.failed()
		frames, chunks := st.cl.FramesInUse(), st.cl.TxChunksInUse()
		res.Layers["fabric.frames_leaked"] += float64(frames)
		res.Layers["mem.txchunks_leaked"] += float64(chunks)
		if frames != 0 || chunks != 0 {
			res.Checks = append(res.Checks, fmt.Sprintf("after the drain %d frames and %d TX chunks are still in use", frames, chunks))
			res.Failed += uint64(max(frames, 0) + max(chunks, 0))
		}
		simf("end_now", float64(st.cl.Eng.Now()))
		simf("end_events", float64(st.cl.Eng.Processed))
		runtime.KeepAlive(st)
	}

	ops := float64(res.Ops)
	res.HeapLiveMB = float64(heapLive) / (1 << 20)
	res.SimP50Us = us(lat.Quantile(0.5))
	res.SimP99Us = quantileInBucket(lat, 0.99)
	res.SimMeanUs = us(lat.Mean())
	res.Samples = lat.Count()
	res.Attempted = res.Ops + res.Failed

	l := res.Layers
	l["sim.events_per_op"] = ratio(float64(win.events), ops)
	l["fabric.frames_per_op"] = ratio(float64(win.forwarded), ops)
	l["fabric.tx_dropped"] = float64(win.txDropped)
	l["nicsim.rx_frames_per_op"] = ratio(float64(win.nicRx), ops)
	l["nicsim.rx_drops"] = float64(win.nicDrops)
	l["netstack.rx_dropped"] = float64(win.stackRxDropped)
	l["tcp.segs_per_op"] = ratio(float64(win.segs), ops)
	l["tcp.retransmits"] = float64(win.retransmits)
	l["tcp.ooo_segs"] = float64(win.oooSegs)
	l["tcp.opens_per_op"] = ratio(float64(win.acceptedOK), ops)
	l["core.cycles_per_op"] = ratio(float64(win.cycles), ops)
	l["core.mean_batch"] = ratio(float64(win.rxPackets), float64(win.cycles))
	l["core.kernel_share"] = ratio(float64(kernelNs), float64(kernelNs+userNs))
	for _, name := range []string{"mutilate.dropped_share", "mutilate.load_p99_us", "memcached.hit_share", "httpkv.errors"} {
		l[name] += 0 // every workload reports every name
	}
	// The digest covers the simulated side only: everything above this
	// line, plus the window's statistics. Host-clock numbers follow.
	simf("ops", ops)
	simf("p50", res.SimP50Us)
	simf("p99", res.SimP99Us)
	simf("mean", res.SimMeanUs)
	simf("samples", float64(res.Samples))
	simf("failed", float64(res.Failed))
	for _, name := range sortedKeys(l) {
		simf(name, l[name])
	}
	sum := sha256.New()
	for _, s := range sim {
		sum.Write([]byte(s + "\n"))
	}
	res.Digest = hex.EncodeToString(sum.Sum(nil))[:16]

	wallS := float64(res.WindowWallNs) / 1e9
	l["sim.events_per_wall_s"] = ratio(float64(win.events), wallS)
	l["runtime.allocs_per_op"] = ratio(float64(host.mallocs), ops)
	l["runtime.alloc_bytes_per_op"] = ratio(float64(host.allocBytes), ops)
	l["runtime.gc_cycles"] = float64(host.numGC)
	l["runtime.gc_pause_ms"] = float64(host.pauseNs) / 1e6
	l["runtime.gc_cpu_share"] = ratio(host.gcCPUSeconds, wallS)
	l["runtime.heap_bytes_per_conn"] = heapPerConn

	if res.Ops == 0 || res.Samples == 0 {
		res.Checks = append(res.Checks, "no operation completed in the window")
	}
	if res.Failed != 0 {
		res.Checks = append(res.Checks, fmt.Sprintf("%d operations failed", res.Failed))
	}
	if w.sla > 0 && lat.Quantile(0.99) > w.sla {
		res.Checks = append(res.Checks, fmt.Sprintf("p99 %v is over the %v SLA", lat.Quantile(0.99), w.sla))
	}
	if tr != nil {
		res.Trace = tr.result(res, profiles)
		res.Checks = append(res.Checks, res.Trace.problems...)
	}
	return res
}

// profileHz is the traced rep's CPU sampling rate.
const profileHz = 500

// quantileInBucket is the q-quantile of h in microseconds, interpolated
// linearly inside the histogram bucket it falls in. Histogram.Quantile
// answers with the bucket's lower bound, in steps of ~3 %; the share of
// the bucket's samples that lie below the quantile's rank (found from
// Quantile itself, by bisection on q) places the answer inside the step,
// so a shift smaller than a bucket still shows.
func quantileInBucket(h *stats.Histogram, q float64) float64 {
	low := h.Quantile(q)
	if low < 32 {
		return us(low) // below 32 ns buckets are exact
	}
	// edge finds where Quantile crosses from `below` to not-below.
	edge := func(below func(time.Duration) bool) float64 {
		lo, hi := 0.0, 1.0
		for i := 0; i < 50; i++ {
			mid := (lo + hi) / 2
			if below(h.Quantile(mid)) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return hi
	}
	start := edge(func(d time.Duration) bool { return d < low }) // mass below the bucket
	end := edge(func(d time.Duration) bool { return d <= low })  // mass up to and including it
	// 32 linear sub-buckets per power of two (stats' documented layout).
	width := time.Duration(1) << (bits.Len64(uint64(low)) - 6)
	v := float64(low) + ratio(q-start, end-start)*float64(width)
	return min(v, float64(h.Max())) / 1e3
}

// phaseJitter is up to a millisecond of extra simulated warm-up drawn
// from the seed. The echo applications draw nothing at random, so without
// it every seed would open its window on the same phase of the same closed
// loop and measure the identical simulation.
func phaseJitter(seed int64) time.Duration {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return time.Duration((z^(z>>31))%1000) * time.Microsecond
}

func (c *counters) add(o counters) {
	c.events += o.events
	c.forwarded += o.forwarded
	c.txDropped += o.txDropped
	c.nicRx += o.nicRx
	c.nicDrops += o.nicDrops
	c.stackRxDropped += o.stackRxDropped
	c.segs += o.segs
	c.retransmits += o.retransmits
	c.oooSegs += o.oooSegs
	c.acceptedOK += o.acceptedOK
	c.cycles += o.cycles
	c.rxPackets += o.rxPackets
}

func (c counters) sub(o counters) counters {
	return counters{
		events: c.events - o.events, forwarded: c.forwarded - o.forwarded, txDropped: c.txDropped - o.txDropped,
		nicRx: c.nicRx - o.nicRx, nicDrops: c.nicDrops - o.nicDrops, stackRxDropped: c.stackRxDropped - o.stackRxDropped,
		segs: c.segs - o.segs, retransmits: c.retransmits - o.retransmits, oooSegs: c.oooSegs - o.oooSegs,
		acceptedOK: c.acceptedOK - o.acceptedOK, cycles: c.cycles - o.cycles, rxPackets: c.rxPackets - o.rxPackets,
	}
}

func (h *hostStats) add(o hostStats) {
	h.mallocs += o.mallocs
	h.allocBytes += o.allocBytes
	h.numGC += o.numGC
	h.pauseNs += o.pauseNs
	h.gcCPUSeconds += o.gcCPUSeconds
}

func (h hostStats) sub(o hostStats) hostStats {
	return hostStats{
		mallocs: h.mallocs - o.mallocs, allocBytes: h.allocBytes - o.allocBytes,
		numGC: h.numGC - o.numGC, pauseNs: h.pauseNs - o.pauseNs, gcCPUSeconds: h.gcCPUSeconds - o.gcCPUSeconds,
	}
}
