package mtcpstack

import (
	"runtime/debug"
	"testing"
	"time"

	"ix/internal/app"
	"ix/internal/fabric"
	"ix/internal/sim"
	"ix/internal/sockcore"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

type pingpong struct {
	server bool
	got    *[]byte
	rtts   *[]time.Duration
	env    app.Env
	t0     int64
}

func (p *pingpong) OnAccept(c app.Conn) {}
func (p *pingpong) OnConnected(c app.Conn, ok bool) {
	if ok {
		p.t0 = p.env.Now()
		c.Send([]byte("ping"))
	}
}
func (p *pingpong) OnRecv(c app.Conn, data []byte) {
	*p.got = append(*p.got, data...)
	if p.server {
		c.Send(data)
	} else if p.rtts != nil {
		*p.rtts = append(*p.rtts, time.Duration(p.env.Now()-p.t0))
		p.t0 = p.env.Now()
		c.Send([]byte("ping"))
	}
}
func (p *pingpong) OnSent(c app.Conn, n int) {}
func (p *pingpong) OnEOF(c app.Conn)         { c.Close() }
func (p *pingpong) OnClosed(c app.Conn)      {}

// TestHandoffLatencyFloor: mTCP RPC latency is dominated by the batched
// TCP-thread↔app-thread handoffs — roughly 4 handoffs per RTT.
func TestHandoffLatencyFloor(t *testing.T) {
	eng := sim.NewEngine(4)
	var srvGot []byte
	var rtts []time.Duration
	srv := New(eng, sockcore.Config{
		IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2}, Cores: 1,
		Factory: func(env app.Env, th, n int) app.Handler {
			_ = env.Listen(80)
			return &pingpong{server: true, got: &srvGot, env: env}
		},
	})
	var cliGot []byte
	cli := New(eng, sockcore.Config{
		IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}, Cores: 1,
		Factory: func(env app.Env, th, n int) app.Handler {
			p := &pingpong{got: &cliGot, rtts: &rtts, env: env}
			_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
			return p
		},
	})
	link := fabric.NewLink(eng, 10*fabric.Gbps, time.Microsecond)
	srv.NIC().AttachPort(link.Port(0))
	cli.NIC().AttachPort(link.Port(1))
	srv.ARP().Learn(cli.IP(), cli.MAC())
	cli.ARP().Learn(srv.IP(), srv.MAC())
	srv.Start()
	cli.Start()
	eng.RunUntil(sim.Time(20 * time.Millisecond))
	if len(rtts) < 10 {
		t.Fatalf("only %d RPCs completed", len(rtts))
	}
	// 4 handoffs of 23µs each ≈ 92µs floor + wire + processing.
	avg := time.Duration(0)
	for _, r := range rtts {
		avg += r
	}
	avg /= time.Duration(len(rtts))
	if avg < 80*time.Microsecond || avg > 160*time.Microsecond {
		t.Fatalf("mTCP RPC RTT = %v, want ~100µs (handoff-dominated)", avg)
	}
}

// TestTimerWakeSkipsCurrentTick: a deadline inside the current tick arms
// the wake at the next tick boundary, and the round it wakes fires it.
func TestTimerWakeSkipsCurrentTick(t *testing.T) {
	eng := sim.NewEngine(1)
	h := New(eng, sockcore.Config{IP: wire.Addr4(10, 0, 0, 9), MAC: wire.MAC{2}, Cores: 1,
		Factory: func(env app.Env, th, n int) app.Handler { return &pingpong{got: new([]byte), env: env} }})
	h.Start()
	tick := int64(timerwheel.DefaultTick)
	eng.RunUntil(sim.Time(10*tick + tick/2))
	m, fired := h.cores[0], false
	m.wheel.Advance(int64(eng.Now()))
	m.wheel.AddArg(int64(eng.Now()), func(any) { fired = true }, nil)
	m.wake.Arm()
	if at, _ := eng.NextEventAt(); at != sim.Time(11*tick) {
		t.Fatalf("next event at %v, want the wake at the tick boundary %v", at, sim.Time(11*tick))
	}
	if eng.Run(); !fired {
		t.Fatal("the woken round did not fire the deadline")
	}
}

// echoServer returns every chunk; pinger keeps one 64 B message in
// flight. Neither allocates per message.
type echoServer struct{}

func (echoServer) OnAccept(app.Conn)              {}
func (echoServer) OnConnected(app.Conn, bool)     {}
func (echoServer) OnRecv(c app.Conn, data []byte) { c.Send(data) }
func (echoServer) OnSent(app.Conn, int)           {}
func (echoServer) OnEOF(c app.Conn)               { c.Close() }
func (echoServer) OnClosed(app.Conn)              {}

type pinger struct {
	msg  []byte
	got  int // bytes of the message in flight echoed so far
	rpcs int
}

func (p *pinger) OnAccept(app.Conn) {}
func (p *pinger) OnConnected(c app.Conn, ok bool) {
	if ok {
		c.Send(p.msg)
	}
}
func (p *pinger) OnRecv(c app.Conn, data []byte) {
	if p.got += len(data); p.got >= len(p.msg) {
		p.got = 0
		p.rpcs++
		c.Send(p.msg)
	}
}
func (p *pinger) OnSent(app.Conn, int) {}
func (p *pinger) OnEOF(c app.Conn)     { c.Close() }
func (p *pinger) OnClosed(app.Conn)    {}

// TestEchoAllocsPerRTT pins what an mTCP echo round trip allocates once
// warm: nothing. The two writes land in pooled send-arena chunks, and
// the handoffs between the TCP and application threads pass typed jobs
// and pooled events instead of closures.
func TestEchoAllocsPerRTT(t *testing.T) {
	allocs, rpcs, _ := echoAllocs(t, 64)
	t.Logf("%d RPCs, %.3f allocs per round trip", rpcs, allocs/float64(rpcs))
	if allocs != 0 {
		t.Fatalf("%d warm echo round trips allocate %.0f times, want 0", rpcs, allocs)
	}
}

// echoAllocs runs one mTCP echo connection of msg-byte messages, one in
// flight, until it is warm, then counts the allocations of 20 ms more; it
// returns them with the round trips completed meanwhile, and the server
// and client hosts.
func echoAllocs(t *testing.T, msg int) (allocs float64, rpcs int, hosts []*Host) {
	t.Helper()
	eng := sim.NewEngine(4)
	cli := &pinger{msg: make([]byte, msg)}
	srv := New(eng, sockcore.Config{
		IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2}, Cores: 1,
		Factory: func(env app.Env, th, n int) app.Handler {
			_ = env.Listen(80)
			return echoServer{}
		},
	})
	client := New(eng, sockcore.Config{
		IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}, Cores: 1,
		Factory: func(env app.Env, th, n int) app.Handler {
			_ = env.Connect(srv.IP(), 80, nil)
			return cli
		},
	})
	link := fabric.NewLink(eng, 10*fabric.Gbps, time.Microsecond)
	srv.NIC().AttachPort(link.Port(0))
	client.NIC().AttachPort(link.Port(1))
	srv.ARP().Learn(client.IP(), client.MAC())
	client.ARP().Learn(srv.IP(), srv.MAC())
	srv.Start()
	client.Start()
	until := sim.Time(5 * time.Millisecond)
	eng.RunUntil(until)
	if cli.rpcs == 0 {
		t.Fatalf("%d B ping-pong did not start", msg)
	}
	// AllocsPerRun counts the whole process's allocations; returning
	// every free page first leaves the runtime's scavenger no timer to
	// re-arm in the window (see linuxstack's echoAllocs).
	debug.FreeOSMemory()
	// AllocsPerRun warms up with one unmeasured call, then measures one.
	start := 0
	allocs = testing.AllocsPerRun(1, func() {
		start = cli.rpcs
		until = until.Add(20 * time.Millisecond)
		eng.RunUntil(until)
	})
	if rpcs = cli.rpcs - start; rpcs < 100 {
		t.Fatalf("%d B: only %d RPCs in the measured window", msg, rpcs)
	}
	return allocs, rpcs, []*Host{srv, client}
}
