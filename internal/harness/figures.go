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

// echoConfig is one §5.3 server configuration: a labelled architecture
// on 1 (10GbE) or 4 (40GbE) NIC ports. mTCP is reported only at 10GbE,
// as in the paper (no bonding support).
type echoConfig struct {
	label string
	arch  Arch
	ports int
}

var echoConfigs = []echoConfig{
	{"Linux-10", ArchLinux, 1},
	{"mTCP-10", ArchMTCP, 1},
	{"IX-10", ArchIX, 1},
	{"Linux-40", ArchLinux, 4},
	{"IX-40", ArchIX, 4},
}

// fig3 runs one §5.3 echo sweep into r for every echoConfig: set moves
// the base point (8 server cores, n=1, s=64 B) to each x, and y reads
// the plotted value from the result.
func fig3(sc Scale, r *Result, xs []int, set func(*EchoSetup, int), y func(EchoResult) float64) *Result {
	for _, cfgc := range echoConfigs {
		for _, x := range xs {
			s := EchoSetup{
				ServerArch:     cfgc.arch,
				ServerCores:    8,
				ServerPorts:    cfgc.ports,
				ClientArch:     ArchLinux,
				ClientHosts:    sc.EchoClients,
				ClientCores:    sc.ClientCores,
				ConnsPerThread: 4,
				Rounds:         1,
				MsgSize:        64,
				Warmup:         sc.Warmup,
				Window:         sc.Window,
			}
			set(&s, x)
			r.AddPoint(cfgc.label, float64(x), y(RunEcho(s)))
		}
	}
	return r
}

func msgsPerSec(res EchoResult) float64 { return res.MsgsPerSec }

// Fig3a regenerates the multi-core scalability sweep (Fig. 3a): n=1,
// s=64 B, message (= connection) rate vs server cores.
func Fig3a(sc Scale) *Result {
	return fig3(sc, &Result{
		Name:   "echo multi-core scalability (n=1, s=64B)",
		Figure: "Figure 3a",
		XLabel: "server cores",
		YLabel: "messages/s",
	}, []int{1, 2, 3, 4, 5, 6, 7, 8}, func(s *EchoSetup, cores int) { s.ServerCores = cores }, msgsPerSec)
}

// Fig3b regenerates the round-trips-per-connection sweep (Fig. 3b):
// 8 cores, s=64 B, n ∈ {1..1024}.
func Fig3b(sc Scale) *Result {
	return fig3(sc, &Result{
		Name:   "echo messages per connection (s=64B, 8 cores)",
		Figure: "Figure 3b",
		XLabel: "msgs per conn",
		YLabel: "messages/s",
	}, []int{1, 2, 8, 32, 64, 128, 256, 512, 1024}, func(s *EchoSetup, n int) { s.Rounds = n }, msgsPerSec)
}

// Fig3c regenerates the message-size sweep (Fig. 3c): n=1, 8 cores,
// goodput vs message size.
func Fig3c(sc Scale) *Result {
	return fig3(sc, &Result{
		Name:   "echo message sizes (n=1, 8 cores)",
		Figure: "Figure 3c",
		XLabel: "msg bytes",
		YLabel: "goodput Gbps",
	}, []int{64, 256, 1024, 4096, 8192}, func(s *EchoSetup, size int) { s.MsgSize = size },
		func(res EchoResult) float64 { return res.GoodputBps / 1e9 })
}

// Fig4QuietGap returns the connect pacing of a quiet ramp, per arch. The
// rates sit just under each server's clean quiet-mode ingest capacity —
// offering faster only converts the excess into SYN retransmission
// storms, which cost far more wall-clock than the pacing saves (a 250k
// IX ramp paced 2× above capacity takes 3× longer in real time). With no
// RPC traffic competing for the accept path and handshake frames charged
// at the DDIO floor, these rates hold constant out to the paper's full
// 250k connections, where a loaded ramp collapses.
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
				per := max((total+threads-1)/threads, 1)
				// The paper maximizes throughput at n=24 threads/client;
				// we bound in-flight RPCs per thread similarly.
				out := min(3, per)
				// The connect ramp: RampBatch-sized batches 4 µs per
				// client thread apart, and 600 ns of warmup per
				// connection to cover it.
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
					RampGap:        time.Duration(threads) * 4 * time.Microsecond,
					Warmup:         sc.Warmup + time.Duration(total)*600*time.Nanosecond,
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
		r.Notes = append(r.Notes,
			fmt.Sprintf("%s: %d connections established at the largest point, %.0f bytes/conn",
				cfgc.label, topConns, topBytesPerConn))
	}
	r.Notes = append(r.Notes,
		"droop at high counts comes from the DDIO/L3 model: 1.4 misses/msg ≤10k conns → ~25 at 250k")
	return r
}
