package harness

import (
	"fmt"
	"time"
)

// Fig2 regenerates the NetPIPE experiment (§5.2, Fig. 2): goodput for
// varying message sizes with the same system on both ends, plus the
// headline one-way latencies for 64 B messages.
func Fig2(sc Scale) *Result {
	r := &Result{
		Name:   "NetPIPE ping-pong",
		Figure: "Figure 2",
		XLabel: "msg bytes",
		YLabel: "goodput Gbps",
	}
	sizes := []int{64, 256, 1024, 4096, 16384, 65536, 131072, 262144, 524288}
	archs := []Arch{ArchLinux, ArchMTCP, ArchIX}
	oneWay := map[Arch]time.Duration{}
	for _, a := range archs {
		for _, size := range sizes {
			res := RunEcho(EchoSetup{
				ServerArch:     a,
				ServerCores:    1,
				ClientArch:     a,
				ClientHosts:    1,
				ClientCores:    1,
				ConnsPerThread: 1,
				Rounds:         0,
				MsgSize:        size,
				Warmup:         sc.Warmup,
				Window:         sc.Window,
			})
			// NetPIPE reports size / one-way time.
			if res.RTTMean > 0 {
				g := float64(size) * 8 / (res.RTTMean.Seconds() / 2) / 1e9
				r.AddPoint(fmt.Sprintf("%v-%v", a, a), float64(size), g)
			}
			if size == 64 {
				oneWay[a] = res.RTTMean / 2
			}
		}
	}
	r.Tables = append(r.Tables, Table{
		Title:   "unloaded one-way latency, 64B (paper: IX 5.7µs, Linux 24µs, mTCP ~10x IX)",
		Columns: []string{"config", "one-way latency"},
		Rows: [][]string{
			{"IX-IX", oneWay[ArchIX].String()},
			{"Linux-Linux", oneWay[ArchLinux].String()},
			{"mTCP-mTCP", oneWay[ArchMTCP].String()},
		},
	})
	return r
}

// echoSeries runs one point of the §5.3 benchmark for a named config.
type echoConfig struct {
	label string
	arch  Arch
	ports int
}

var echoConfigs10G = []echoConfig{
	{"Linux-10", ArchLinux, 1},
	{"mTCP-10", ArchMTCP, 1},
	{"IX-10", ArchIX, 1},
}

var echoConfigs40G = []echoConfig{
	{"Linux-40", ArchLinux, 4},
	{"IX-40", ArchIX, 4},
}

// Fig3a regenerates the multi-core scalability sweep (Fig. 3a): n=1,
// s=64 B, message (= connection) rate vs server cores. mTCP is reported
// only at 10GbE, as in the paper (no bonding support).
func Fig3a(sc Scale) *Result {
	r := &Result{
		Name:   "echo multi-core scalability (n=1, s=64B)",
		Figure: "Figure 3a",
		XLabel: "server cores",
		YLabel: "messages/s",
	}
	configs := append(append([]echoConfig{}, echoConfigs10G...), echoConfigs40G...)
	for _, cfgc := range configs {
		for cores := 1; cores <= 8; cores++ {
			res := RunEcho(EchoSetup{
				ServerArch:     cfgc.arch,
				ServerCores:    cores,
				ServerPorts:    cfgc.ports,
				ClientArch:     ArchLinux,
				ClientHosts:    sc.EchoClients,
				ClientCores:    sc.ClientCores,
				ConnsPerThread: 4,
				Rounds:         1,
				MsgSize:        64,
				Warmup:         sc.Warmup,
				Window:         sc.Window,
			})
			r.AddPoint(cfgc.label, float64(cores), res.MsgsPerSec)
		}
	}
	return r
}

// Fig3b regenerates the round-trips-per-connection sweep (Fig. 3b):
// 8 cores, s=64 B, n ∈ {1..1024}.
func Fig3b(sc Scale) *Result {
	r := &Result{
		Name:   "echo messages per connection (s=64B, 8 cores)",
		Figure: "Figure 3b",
		XLabel: "msgs per conn",
		YLabel: "messages/s",
	}
	ns := []int{1, 2, 8, 32, 64, 128, 256, 512, 1024}
	configs := append(append([]echoConfig{}, echoConfigs10G...), echoConfigs40G...)
	for _, cfgc := range configs {
		for _, n := range ns {
			res := RunEcho(EchoSetup{
				ServerArch:     cfgc.arch,
				ServerCores:    8,
				ServerPorts:    cfgc.ports,
				ClientArch:     ArchLinux,
				ClientHosts:    sc.EchoClients,
				ClientCores:    sc.ClientCores,
				ConnsPerThread: 4,
				Rounds:         n,
				MsgSize:        64,
				Warmup:         sc.Warmup,
				Window:         sc.Window,
			})
			r.AddPoint(cfgc.label, float64(n), res.MsgsPerSec)
		}
	}
	return r
}

// Fig3c regenerates the message-size sweep (Fig. 3c): n=1, 8 cores,
// goodput vs message size.
func Fig3c(sc Scale) *Result {
	r := &Result{
		Name:   "echo message sizes (n=1, 8 cores)",
		Figure: "Figure 3c",
		XLabel: "msg bytes",
		YLabel: "goodput Gbps",
	}
	sizes := []int{64, 256, 1024, 4096, 8192}
	configs := append(append([]echoConfig{}, echoConfigs10G...), echoConfigs40G...)
	for _, cfgc := range configs {
		for _, size := range sizes {
			res := RunEcho(EchoSetup{
				ServerArch:     cfgc.arch,
				ServerCores:    8,
				ServerPorts:    cfgc.ports,
				ClientArch:     ArchLinux,
				ClientHosts:    sc.EchoClients,
				ClientCores:    sc.ClientCores,
				ConnsPerThread: 4,
				Rounds:         1,
				MsgSize:        size,
				Warmup:         sc.Warmup,
				Window:         sc.Window,
			})
			r.AddPoint(cfgc.label, float64(size), res.GoodputBps/1e9)
		}
	}
	return r
}

// Fig4Ramp returns the connection-ramp pacing for one Fig. 4 point: the
// gap between RampBatch-sized connect batches and the warmup extension
// covering the ramp. Establishment rate is architecture-bound, so the
// ramp is per-arch: an IX server ingests ~4k conns/ms, but the Linux
// kernel's accept path (syscall entry + ConnSetup per accept, sharing
// cores with softirq and the already-established load) absorbs only
// ~400 conns/ms — offering SYNs faster collapses establishment into
// synchronized retransmission waves, leaving the largest Linux points
// under-filled at measurement time. TestClaimFig4LinuxFill pins the
// Linux rate at the 100k point.
func Fig4Ramp(arch Arch, total, threads int) (gap, warmup time.Duration) {
	gapPerThread, warmPerConn := 4*time.Microsecond, 600*time.Nanosecond
	if arch == ArchLinux && total > 20_000 {
		gapPerThread, warmPerConn = 40*time.Microsecond, 2600*time.Nanosecond
	}
	return time.Duration(threads) * gapPerThread, time.Duration(total) * warmPerConn
}

// Fig4QuietGap returns the connect pacing of a quiet ramp, per arch. The
// rates sit just under each server's clean quiet-mode ingest capacity —
// offering faster only converts the excess into SYN retransmission
// storms, which cost far more wall-clock than the pacing saves (a 250k
// IX ramp paced 2× above capacity takes 3× longer in real time). With no
// RPC traffic competing for the accept path and handshake frames charged
// at the DDIO floor, these rates hold constant out to the paper's full
// 250k connections, where the loaded Fig4Ramp rates collapse.
func Fig4QuietGap(arch Arch, threads int) time.Duration {
	per := 8 * time.Microsecond // IX: ~2k conns/ms, retransmission-free
	if arch == ArchLinux {
		per = 32 * time.Microsecond // kernel accept path: ~500 conns/ms
	}
	return time.Duration(threads) * per
}

// fig4Fleet is the paper's full client fleet (18 machines × 8 cores,
// §5.1), used for every point above 20k connections.
const (
	fig4FleetHosts = 18
	fig4FleetCores = 8
)

// Fig4 regenerates connection scalability (§5.4, Fig. 4): maximum 64 B
// message rate vs total established connections, with each client thread
// rotating a bounded number of in-flight RPCs over its connection set
// (n=24 threads per client in the paper). Points up to 20k connections
// are cheap enough to run cold, as before; the large points (50k, 100k
// and the paper's full 250k) share one persistent warmed cluster per
// configuration — established quietly once, then moved between points by
// delta establishment — so the sweep no longer pays a full ramp per
// point (see EchoBench).
func Fig4(sc Scale) *Result {
	r := &Result{
		Name:   "connection scalability (s=64B)",
		Figure: "Figure 4",
		XLabel: "connections",
		YLabel: "messages/s",
	}
	// The paper's figure tops out at its testbed limit of 250k; the
	// reproduction extends the axis to 1M connections (Scale.MaxConns
	// caps how far a given run sweeps) to demonstrate that the
	// per-connection memory budget — not a protocol or table limit — is
	// what bounds the population (DESIGN.md, "Per-connection memory
	// budget").
	counts := []int{10, 100, 1000, 10_000, 50_000, 100_000, 250_000, 1_000_000}
	configs := []echoConfig{
		{"Linux-10", ArchLinux, 1},
		{"Linux-40", ArchLinux, 4},
		{"IX-10", ArchIX, 1},
		{"IX-40", ArchIX, 4},
	}
	for _, cfgc := range configs {
		topConns := 0
		topBytesPerConn := 0.0
		var bench *EchoBench
		for _, total := range counts {
			if total > sc.MaxConns {
				continue
			}
			var res EchoResult
			var x float64
			if total <= 20_000 {
				hosts, cores := sc.EchoClients, sc.ClientCores
				threads := hosts * cores
				per := (total + threads - 1) / threads
				if per < 1 {
					per = 1
				}
				// The paper maximizes throughput at n=24 threads/client;
				// we bound in-flight RPCs per thread similarly.
				out := 3
				if per < out {
					out = per
				}
				gap, warm := Fig4Ramp(cfgc.arch, total, threads)
				res = RunEcho(EchoSetup{
					ServerArch:     cfgc.arch,
					ServerCores:    8,
					ServerPorts:    cfgc.ports,
					ClientArch:     ArchLinux,
					ClientHosts:    hosts,
					ClientCores:    cores,
					ConnsPerThread: per,
					Outstanding:    out,
					MsgSize:        64,
					RampBatch:      16,
					RampGap:        gap,
					Warmup:         sc.Warmup + warm,
					Window:         sc.Window,
				})
				x = float64(threads * per)
			} else {
				if bench == nil {
					threads := fig4FleetHosts * fig4FleetCores
					// Presize the server for the sweep's largest point:
					// the persistent cluster will carry the population
					// there by delta establishment, and tables that double
					// their way up both fragment and over-shoot.
					top := 0
					for _, n := range counts {
						if n <= sc.MaxConns && n > top {
							top = n
						}
					}
					bench = NewEchoBench(EchoSetup{
						ServerArch:    cfgc.arch,
						ServerCores:   8,
						ServerPorts:   cfgc.ports,
						ClientArch:    ArchLinux,
						ClientHosts:   fig4FleetHosts,
						ClientCores:   fig4FleetCores,
						MsgSize:       64,
						RampBatch:     16,
						RampGap:       Fig4QuietGap(cfgc.arch, threads),
						ExpectedConns: top,
					})
				}
				res = bench.MeasurePoint(total, 3, sc.Window)
				per := (total + bench.Threads() - 1) / bench.Threads()
				x = float64(bench.Threads() * per)
			}
			r.AddPoint(cfgc.label, x, res.MsgsPerSec)
			if res.ServerConns > topConns {
				topConns = res.ServerConns
				topBytesPerConn = res.ServerBytesPerConn
			}
		}
		if bench != nil {
			bench.Stop()
		}
		r.Notes = append(r.Notes,
			fmt.Sprintf("%s: %d connections established at the largest point, %.0f bytes/conn",
				cfgc.label, topConns, topBytesPerConn))
	}
	r.Notes = append(r.Notes,
		"droop at high counts comes from the DDIO/L3 model: 1.4 misses/msg ≤10k conns → ~25 at 250k")
	return r
}
