package harness

import (
	"fmt"
	"testing"
	"time"

	"ix/internal/apps/echo"
	"ix/internal/apps/httpkv"
	"ix/internal/apps/incast"
	"ix/internal/apps/memcached"
	"ix/internal/mutilate"
)

// The stop contract every load generator keeps: once its Running flag
// clears, it starts no new operation and opens no connection, the
// operations already in flight complete, and the cluster drains.
const (
	// rtoFloor is TCP's default minimum retransmission timeout.
	rtoFloor = 200 * time.Microsecond
	// stopDrainRTOs bounds the drain: every pool is back in balance
	// within this many RTO floors of the stop.
	stopDrainRTOs = 5
	// drainPoll is how often the drain is sampled.
	drainPoll = 20 * time.Microsecond
)

// stopLoad is one generator's view for the stop test: ops counts its
// completed operations, inFlight those started and not yet completed
// (an upper bound where the generator does not expose the exact count),
// and stop clears its Running flag. conns, where set, counts the open
// and connecting connections.
type stopLoad struct {
	ops      func() uint64
	inFlight func() int
	stop     func()
	conns    func() int
}

// echoStopLoad is 2×2 Linux client threads configured by cfg against a
// 2-core echo server on arch.
func echoStopLoad(arch Arch, cfg echo.ClientConfig) func(*Cluster) stopLoad {
	return func(cl *Cluster) stopLoad {
		m, fleet := echo.NewMetrics(), &echo.Fleet{}
		srv := cl.AddHost("server", HostSpec{Arch: arch, Cores: 2, Factory: echo.ServerFactory(9000, 64)})
		cfg.ServerIP, cfg.Port, cfg.MsgSize = srv.IP(), 9000, 64
		cfg.Fleet, cfg.Metrics = fleet, m
		for i := 0; i < 2; i++ {
			cl.AddHost("client", HostSpec{Arch: ArchLinux, Cores: 2, Factory: echo.ClientFactory(cfg)})
		}
		return stopLoad{
			ops: m.Msgs.Total,
			// A connection being opened at the stop still runs its
			// first RPC.
			inFlight: func() int { return fleet.InFlight() + fleet.Pending() },
			stop:     func() { m.Running = false },
			conns:    func() int { return fleet.Open() + fleet.Pending() },
		}
	}
}

// mutilateStopLoad is one 2-thread mutilate load host and the latency
// agent against IX memcached.
func mutilateStopLoad(cl *Cluster) stopLoad {
	const port, conns, pipeline = 11211, 4, 4
	store := memcached.NewStore(16 << 20)
	mutilate.Preload(store, mutilate.ETC)
	srv := cl.AddHost("memcached", HostSpec{Arch: ArchIX, Cores: 2, Factory: memcached.ServerFactory(store, port)})
	m := mutilate.NewMetrics()
	cl.AddHost("mutilate", HostSpec{
		Arch: ArchLinux, Cores: 2,
		Factory: mutilate.LoadFactory(mutilate.LoadConfig{
			ServerIP: srv.IP(), Port: port, Workload: mutilate.ETC,
			Conns: conns, TargetRPS: 200_000, Pipeline: pipeline, Metrics: m, Seed: 5,
		}),
	})
	cl.AddHost("agent", HostSpec{
		Arch: ArchLinux, Cores: 1,
		Factory: mutilate.AgentFactory(mutilate.AgentConfig{
			ServerIP: srv.IP(), Port: port, Workload: mutilate.ETC, Metrics: m, Seed: 6,
		}),
	})
	return stopLoad{
		ops: func() uint64 { return m.Responses.Total() + m.AgentLatency.Count() },
		// Every load pipeline full, plus the agent's one request.
		inFlight: func() int { return 2*conns*pipeline + 1 },
		stop:     func() { m.Running = false },
	}
}

// incastStopLoad is four Linux senders bursting 8 KiB to an IX sink
// every period from start on; the stop lands just after a barrier, so
// one round is in flight.
const (
	incastStart  = 500 * time.Microsecond
	incastPeriod = time.Millisecond
)

func incastStopLoad(cl *Cluster) stopLoad {
	const port, burst = 5001, 8 << 10
	m := incast.NewMetrics()
	sink := cl.AddHost("sink", HostSpec{Arch: ArchIX, Cores: 1, Factory: incast.SinkFactory(port, burst, m)})
	for i := 0; i < 4; i++ {
		cl.AddHost("sender", HostSpec{
			Arch: ArchLinux, Cores: 1,
			Factory: incast.SenderFactory(incast.Config{
				ServerIP: sink.IP(), Port: port, Burst: burst,
				Start: incastStart, Period: incastPeriod, Metrics: m,
			}),
		})
	}
	return stopLoad{
		ops: m.RoundsDone.Total,
		inFlight: func() int {
			fired := int((time.Duration(cl.Eng.Now())-incastStart)/incastPeriod) + 1
			return fired - int(m.RoundsDone.Total()+m.RoundsFailed.Total())
		},
		stop: func() { m.Running = false },
	}
}

// httpkvStopLoad is the httpkv testbed on IX: one 2-thread client host
// whose 4 worker fibers per thread each run one HTTP echo + KV SET/GET
// round at a time, so every worker has exactly one round in flight.
func httpkvStopLoad(cl *Cluster) stopLoad {
	const workers = 4
	m := httpkv.NewMetrics()
	httpIP := cl.AddHost("http", HostSpec{Arch: ArchIX, Cores: 2, Factory: httpkv.HTTPServerFactory(httpPort)}).IP()
	kvIP := cl.AddHost("kv", HostSpec{Arch: ArchIX, Cores: 2, Factory: httpkv.KVServerFactory(kvPort, httpkv.NewStore())}).IP()
	cl.AddHost("client", HostSpec{
		Arch: ArchIX, Cores: 2,
		Factory: httpkv.ClientFactory(httpkv.ClientConfig{
			HTTPIP: httpIP, HTTPPort: httpPort, KVIP: kvIP, KVPort: kvPort,
			Workers: workers, BodySize: 256, Metrics: m,
		}),
	})
	return stopLoad{ops: m.KVOps.Total, inFlight: func() int { return 2 * workers }, stop: func() { m.Running = false }}
}

// TestStopDrains: every load generator, stopped mid-run, completes no
// more operations than it had in flight at the stop, and the cluster's
// frame, mbuf and TX chunk pools are back in balance within
// stopDrainRTOs RTO floors and stay there.
func TestStopDrains(t *testing.T) {
	type row struct {
		name   string
		build  func(*Cluster) stopLoad
		stopAt time.Duration
	}
	var rows []row
	for _, arch := range []Arch{ArchIX, ArchLinux, ArchMTCP} {
		rows = append(rows,
			row{fmt.Sprintf("echo/%v/rounds=0", arch), echoStopLoad(arch, echo.ClientConfig{Conns: 4}), time.Millisecond},
			row{fmt.Sprintf("echo/%v/rounds=8", arch), echoStopLoad(arch, echo.ClientConfig{Rounds: 8, Conns: 4}), time.Millisecond},
			row{fmt.Sprintf("echo/%v/rotation", arch), echoStopLoad(arch, echo.ClientConfig{Conns: 8, Outstanding: 3}), time.Millisecond},
			// Stopped between ramp batches, with the second batch's
			// connects still unresolved.
			row{fmt.Sprintf("echo/%v/ramp", arch), echoStopLoad(arch, echo.ClientConfig{
				Conns: 16, RampBatch: 4, RampGap: 200 * time.Microsecond,
			}), 205 * time.Microsecond},
		)
	}
	rows = append(rows,
		row{"mutilate", mutilateStopLoad, 2 * time.Millisecond},
		row{"incast", incastStopLoad, incastStart + 2*incastPeriod + 2*time.Microsecond},
		row{"httpkv", httpkvStopLoad, 2 * time.Millisecond},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cl := NewCluster(11)
			load := r.build(cl)
			cl.Start()
			cl.Run(r.stopAt)
			before, inFlight := load.ops(), load.inFlight()
			if before == 0 || inFlight <= 0 {
				t.Fatalf("stopped with %d ops done and %d in flight: not mid-run", before, inFlight)
			}
			conns := 0
			if load.conns != nil {
				conns = load.conns()
			}
			load.stop()
			drained := time.Duration(-1)
			for at := drainPoll; at <= stopDrainRTOs*rtoFloor; at += drainPoll {
				cl.Run(drainPoll)
				if cl.Leaks() == (Leaks{}) {
					drained = at
					break
				}
			}
			if drained < 0 {
				t.Errorf("pools not drained %v after the stop: %+v", stopDrainRTOs*rtoFloor, cl.Leaks())
			}
			// Nothing restarts later.
			cl.Run(stopDrainRTOs * rtoFloor)
			if after := load.ops() - before; after > uint64(inFlight) {
				t.Errorf("%d ops completed after the stop, %d were in flight", after, inFlight)
			}
			if l := cl.Leaks(); l != (Leaks{}) {
				t.Errorf("pools unbalanced again after the drain: %+v", l)
			}
			if load.conns != nil && load.conns() > conns {
				t.Errorf("%d connections open or connecting after the stop, %d at it", load.conns(), conns)
			}
			t.Logf("%d ops before the stop, %d in flight, drained in %v", before, inFlight, drained)
		})
	}
}
