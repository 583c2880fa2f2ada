package main

import (
	"time"

	"ix/internal/app"
	"ix/internal/apps/echo"
	"ix/internal/apps/httpkv"
	"ix/internal/apps/memcached"
	"ix/internal/core"
	"ix/internal/harness"
	"ix/internal/linuxstack"
	"ix/internal/mtcpstack"
	"ix/internal/mutilate"
	"ix/internal/stats"
)

// defaultSeed is the seed of a run that names none. Claims made on it
// are re-checked on another seed (README, "Seeds").
const defaultSeed = 20140611

// A workload is one named traffic mix. Its simulated lengths are frozen
// constants, so two commits do identical simulated work and every
// simulated statistic of a fixed seed compares exactly; only the host
// cost of doing that work moves.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why string
	// op names what one operation is.
	op string
	// sla, when set, is a limit the window's p99 latency is checked
	// against.
	sla time.Duration
	// bulk marks the workload whose operation is a 64 KiB message each
	// way, for the counts-times-micro-benchmarks sum.
	bulk bool
	// stages build the testbeds, run one after the other in one rep
	// with their windows summed (one everywhere but facade_httpkv).
	stages []stageBuilder
}

// A stageBuilder assembles one testbed for a seed. scale shrinks the
// frozen simulated lengths for the unit tests' smoke runs (the benchmark
// always runs scale 1); wrap goes around every application factory.
type stageBuilder func(seed int64, scale float64, wrap wrapFactory) *stage

// wrapFactory lets the traced run put spans around every handler an
// application factory creates; the timed runs pass the identity.
type wrapFactory func(app.Factory) app.Factory

// A stage is one assembled, started testbed: the pieces the driver needs
// to ramp it, open a measurement window over it, read it and wind it
// down. Everything here is reached through public constructors and
// fields of the packages under measurement.
type stage struct {
	cl     *harness.Cluster
	server harness.Host
	// Per-architecture host lists, for the counter snapshot.
	ixs     []*core.Dataplane
	linuxes []*linuxstack.Host
	mtcps   []*mtcpstack.Host
	hosts   []harness.Host

	// ramp establishes the connection population before warm-up (nil
	// when the application ramps by itself); it reports how many
	// connections it targeted and how many it established.
	ramp           func(run func(time.Duration)) (targeted, established int)
	warmup, window time.Duration
	drain          time.Duration

	// begin opens the measurement window (metric epochs, server meters).
	begin func()
	// ops is the number of operations completed since begin.
	ops func() uint64
	// latency is the window's latency histogram.
	latency func() *stats.Histogram
	// failed counts failures: anything a client saw go wrong over the
	// whole run (memc_etc: since the window opened).
	failed func() uint64
	// stop winds the load down so the drain can reach quiescence.
	stop func()
	// extra adds the workload's own sim-side counters to the snapshot.
	extra func(m map[string]float64)
}

const (
	echoPort = 9000
	memcPort = 11211
	httpPort = 8080
	kvPort   = 6379
)

// scaled shrinks a frozen simulated length for the unit tests' smoke
// runs; the benchmark itself always runs scale 1.
func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// echoFleet is the shape of one echo testbed.
type echoFleet struct {
	serverPorts               int
	hosts, cores, connsPerThr int
	rounds, msgSize           int
	warmup, window            time.Duration
}

// echoStage assembles an IX echo server and a Linux client fleet, the
// testbed of rpc_steady, conn_churn and bulk_stream.
func echoStage(seed int64, scale float64, wrap wrapFactory, f echoFleet) *stage {
	st := &stage{cl: harness.NewCluster(seed)}
	m := echo.NewMetrics()
	outstanding := 0
	if f.rounds == 0 {
		outstanding = f.connsPerThr
	}
	st.addHost("server", harness.HostSpec{
		Arch:          harness.ArchIX,
		Cores:         8,
		Ports:         f.serverPorts,
		Factory:       wrap(echo.ServerFactory(echoPort, f.msgSize)),
		ExpectedConns: f.hosts * f.cores * f.connsPerThr,
	})
	for i := 0; i < f.hosts; i++ {
		st.addHost("client", harness.HostSpec{
			Arch:  harness.ArchLinux,
			Cores: f.cores,
			Factory: wrap(echo.ClientFactory(echo.ClientConfig{
				ServerIP: st.server.IP(),
				Port:     echoPort,
				MsgSize:  f.msgSize,
				Rounds:   f.rounds,
				Conns:    f.connsPerThr,
				// n=∞ runs as a rotation with every connection in flight:
				// the same closed loop, but one the client winds down when
				// told to, so the drain reaches quiescence and the leak
				// checks mean something.
				Outstanding: outstanding,
				Metrics:     m,
			})),
		})
	}
	st.warmup, st.window = scaled(f.warmup, scale), scaled(f.window, scale)
	st.drain = 5 * time.Millisecond
	st.echoMetrics(m, f.rounds == 1)
	return st
}

// echoMetrics wires an echo metrics sink into the stage. When the
// operation is a whole connection (n=1) completed connections are
// counted; otherwise completed RPCs.
func (st *stage) echoMetrics(m *echo.Metrics, countConns bool) {
	st.begin = func() {
		m.ResetWindow()
		st.ixs[0].ResetStats()
	}
	st.ops = m.Msgs.Since
	if countConns {
		st.ops = m.Conns.Since
	}
	st.latency = func() *stats.Histogram { return m.Latency }
	st.failed = func() uint64 {
		return m.Failures.Total() + m.VerifyErrors.Total() + m.SumMismatches.Total()
	}
	st.stop = func() { m.Running = false }
}

// addHost adds a machine and files it by architecture (the first host
// added is the stage's server).
func (st *stage) addHost(name string, spec harness.HostSpec) harness.Host {
	h := st.cl.AddHost(name, spec)
	switch spec.Arch {
	case harness.ArchIX:
		st.ixs = append(st.ixs, st.cl.IXServer(len(st.ixs)))
	case harness.ArchLinux:
		st.linuxes = append(st.linuxes, st.cl.LinuxHost(len(st.linuxes)))
	case harness.ArchMTCP:
		st.mtcps = append(st.mtcps, st.cl.MTCPHost(len(st.mtcps)))
	}
	if st.server == nil {
		st.server = h
	}
	st.hosts = append(st.hosts, h)
	return h
}

// connScaleConns is the established population of conn_scale: the
// paper's testbed limit (§5.4).
const connScaleConns = 250_000

// connScaleStage is the Fig. 4 top point: the paper's full client fleet
// holding 250k connections open on an IX 4x10GbE server, three RPCs in
// flight per client thread rotating over the population. The quiet ramp
// is the one harness.NewEchoBench performs, assembled here from the same
// public pieces (echo.Fleet, harness.Fig4QuietGap) so the counter
// snapshots sit exactly on the window boundaries.
func connScaleStage(seed int64, scale float64, wrap wrapFactory) *stage {
	const hosts, cores, outstanding = 18, 8, 3
	threads := hosts * cores
	total := int(float64(connScaleConns) * scale)
	per := (total + threads - 1) / threads
	target := per * threads

	st := &stage{cl: harness.NewCluster(seed)}
	m := echo.NewMetrics()
	fleet := &echo.Fleet{}
	st.addHost("server", harness.HostSpec{
		Arch:          harness.ArchIX,
		Cores:         8,
		Ports:         4,
		Factory:       wrap(echo.ServerFactory(echoPort, 64)),
		ExpectedConns: target,
	})
	for i := 0; i < hosts; i++ {
		st.addHost("client", harness.HostSpec{
			Arch:  harness.ArchLinux,
			Cores: cores,
			Factory: wrap(echo.ClientFactory(echo.ClientConfig{
				ServerIP:    st.server.IP(),
				Port:        echoPort,
				MsgSize:     64,
				Outstanding: outstanding,
				RampBatch:   16,
				RampGap:     harness.Fig4QuietGap(harness.ArchIX, threads),
				QuietRamp:   true,
				Fleet:       fleet,
				Metrics:     m,
			})),
		})
	}
	st.ramp = func(run func(time.Duration)) (int, int) {
		fleet.Pause()
		fleet.Retarget(per, outstanding, uint64(seed))
		// 8 µs per connection is the quiet ramp's pacing; allow four
		// times that before calling the population short.
		const step = 250 * time.Microsecond
		budget := 2*time.Millisecond + time.Duration(target)*32*time.Microsecond
		for el := time.Duration(0); el < budget; el += step {
			if fleet.Open() >= target && fleet.Pending() == 0 {
				break
			}
			run(step)
		}
		run(time.Millisecond)
		fleet.Resume()
		return target, fleet.Open()
	}
	// The window stops short of 150 ms: past that, at this population, the
	// model starts dropping at the server's NIC ring and retransmitting
	// (README, "What the benchmark found"), and a workload's operations
	// must not fail.
	st.warmup, st.window = scaled(2*time.Millisecond, scale), scaled(120*time.Millisecond, scale)
	st.drain = 5 * time.Millisecond
	st.echoMetrics(m, false)
	return st
}

// memcRPS is the offered load of memc_etc, across all load threads.
const memcRPS = 1.0e6

// memcStage is the §5.5 testbed: a preloaded memcached on IX, mutilate
// load machines pacing an open loop, and one unloaded latency agent.
func memcStage(seed int64, scale float64, wrap wrapFactory) *stage {
	const hosts, cores = 8, 2
	st := &stage{cl: harness.NewCluster(seed)}
	store := memcached.NewStore(256 << 20)
	mutilate.Preload(store, mutilate.ETC)
	m := mutilate.NewMetrics()
	st.addHost("memcached", harness.HostSpec{
		Arch:       harness.ArchIX,
		Cores:      6,
		BatchBound: 64,
		Factory:    wrap(memcached.ServerFactory(store, memcPort)),
	})
	for i := 0; i < hosts; i++ {
		st.addHost("mutilate", harness.HostSpec{
			Arch:  harness.ArchLinux,
			Cores: cores,
			Factory: wrap(mutilate.LoadFactory(mutilate.LoadConfig{
				ServerIP:  st.server.IP(),
				Port:      memcPort,
				Workload:  mutilate.ETC,
				Conns:     32,
				TargetRPS: memcRPS / float64(hosts*cores),
				Pipeline:  4,
				Metrics:   m,
				Seed:      uint64(seed) + uint64(i)*977,
			})),
		})
	}
	st.addHost("agent", harness.HostSpec{
		Arch:  harness.ArchLinux,
		Cores: 1,
		Factory: wrap(mutilate.AgentFactory(mutilate.AgentConfig{
			ServerIP: st.server.IP(),
			Port:     memcPort,
			Workload: mutilate.ETC,
			Metrics:  m,
			Seed:     uint64(seed) * 31,
		})),
	})
	st.warmup, st.window = scaled(50*time.Millisecond, scale), scaled(200*time.Millisecond, scale)
	st.drain = 5 * time.Millisecond
	var hits0, misses0 uint64
	st.begin = func() {
		m.ResetWindow()
		st.ixs[0].ResetStats()
		hits0, misses0 = store.Hits, store.Misses
	}
	st.ops = m.Responses.Since
	st.latency = func() *stats.Histogram { return m.AgentLatency }
	// The generators pace from t=0, before their connections are up, and
	// shed those first requests; only the window's drops are failures.
	st.failed = m.Dropped.Since
	st.stop = func() { m.Running = false }
	st.extra = func(out map[string]float64) {
		out["mutilate.dropped_share"] = ratio(float64(m.Dropped.Since()), float64(m.Dropped.Since()+m.Responses.Since()))
		hits, misses := store.Hits-hits0, store.Misses-misses0
		out["memcached.hit_share"] = ratio(float64(hits), float64(hits+misses))
		out["mutilate.load_p99_us"] = us(m.LoadLatency.Quantile(0.99))
	}
	return st
}

// httpkvStage is the blocking-facade workload: an HTTP/1.1 echo tier and
// a KV tier written against net.Conn over ixnet fibers, driven by a
// pooled closed-loop client, all three hosts on one architecture.
func httpkvStage(arch harness.Arch) stageBuilder {
	return func(seed int64, scale float64, wrap wrapFactory) *stage {
		st := &stage{cl: harness.NewCluster(seed)}
		m := httpkv.NewMetrics()
		store := httpkv.NewStore()
		st.addHost("http", harness.HostSpec{Arch: arch, Cores: 2, Factory: wrap(httpkv.HTTPServerFactory(httpPort))})
		kv := st.addHost("kv", harness.HostSpec{Arch: arch, Cores: 2, Factory: wrap(httpkv.KVServerFactory(kvPort, store))})
		st.addHost("client", harness.HostSpec{
			Arch:  arch,
			Cores: 2,
			Factory: wrap(httpkv.ClientFactory(httpkv.ClientConfig{
				HTTPIP:   st.server.IP(),
				HTTPPort: httpPort,
				KVIP:     kv.IP(),
				KVPort:   kvPort,
				Workers:  4,
				BodySize: 256,
				Metrics:  m,
			})),
		})
		st.warmup, st.window = scaled(35*time.Millisecond, scale), scaled(120*time.Millisecond, scale)
		st.drain = 50 * time.Millisecond
		st.begin = func() {
			m.ResetWindow()
			for _, dp := range st.ixs {
				dp.ResetStats()
			}
		}
		st.ops = func() uint64 { return m.HTTPOps.Since() + m.KVOps.Since() }
		st.latency = func() *stats.Histogram { return m.Latency }
		st.failed = func() uint64 { return m.Errors.Total() + m.VerifyErrors.Total() }
		st.stop = func() { m.Running = false }
		st.extra = func(out map[string]float64) {
			out["httpkv.errors"] += float64(m.Errors.Total() + m.VerifyErrors.Total())
		}
		return st
	}
}

// workloads is the benchmark: the same six names every run.
var workloads = []workload{
	{
		name: "rpc_steady",
		why:  "closed loop, 96 conns, 64 B echo, no handshakes, tiny tables: the per-packet fast path, where an event-queue or dispatch gain shows first",
		op:   "echo RPC",
		stages: []stageBuilder{func(seed int64, scale float64, wrap wrapFactory) *stage {
			return echoStage(seed, scale, wrap, echoFleet{serverPorts: 1, hosts: 6, cores: 4, connsPerThr: 4,
				msgSize: 64, warmup: 80 * time.Millisecond, window: 280 * time.Millisecond})
		}},
	},
	{
		name: "conn_churn",
		why:  "closed loop, 96 conns, connect + one 64 B RPC + RST: table inserts and deletes, port allocation, timer arm and cancel, the accept path",
		op:   "connection",
		stages: []stageBuilder{func(seed int64, scale float64, wrap wrapFactory) *stage {
			return echoStage(seed, scale, wrap, echoFleet{serverPorts: 1, hosts: 6, cores: 4, connsPerThr: 4,
				rounds: 1, msgSize: 64, warmup: 40 * time.Millisecond, window: 150 * time.Millisecond})
		}},
	},
	{
		name:   "conn_scale",
		why:    "closed loop, 3 RPCs in flight per thread over 250000 established conns: population dominates (GC, maps, bytes per conn), set-up is the 250k handshake ramp",
		op:     "echo RPC",
		stages: []stageBuilder{connScaleStage},
	},
	{
		name: "bulk_stream",
		why:  "closed loop, 96 conns, 64 KiB messages over 4x10GbE: per-byte work (copies, checksums, segmentation) where an event-queue gain mostly does not show",
		op:   "64 KiB message",
		bulk: true,
		stages: []stageBuilder{func(seed int64, scale float64, wrap wrapFactory) *stage {
			return echoStage(seed, scale, wrap, echoFleet{serverPorts: 4, hosts: 6, cores: 4, connsPerThr: 4,
				msgSize: 64 << 10, warmup: 20 * time.Millisecond, window: 65 * time.Millisecond})
		}},
	},
	{
		name:   "memc_etc",
		why:    "open loop, 1.0 M req/s offered, mutilate ETC on memcached plus one unloaded latency agent: pacing timers, parser, store, variable value sizes; agent p99 against the 500 us SLA",
		op:     "memcached response",
		sla:    500 * time.Microsecond, // the paper's memcached SLA (§5.5), on the unloaded agent's p99
		stages: []stageBuilder{memcStage},
	},
	{
		name: "facade_httpkv",
		why:  "closed loop, 2x4 worker fibers, httpkv over ixnet on IX, Linux and mTCP servers in turn: the only coverage of fibers, mtcpstack and linuxstack as a server",
		op:   "HTTP or KV op",
		stages: []stageBuilder{
			httpkvStage(harness.ArchIX), httpkvStage(harness.ArchLinux), httpkvStage(harness.ArchMTCP),
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
