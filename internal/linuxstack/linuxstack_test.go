package linuxstack

import (
	"testing"
	"time"

	"ix/internal/app"
	"ix/internal/fabric"
	"ix/internal/sim"
	"ix/internal/sockcore"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// pingpong is a minimal app: server echoes, client sends once.
type pingpong struct {
	env    app.Env
	server bool
	got    *[]byte
	dst    wire.IPv4
}

func (p *pingpong) OnAccept(c app.Conn) {}
func (p *pingpong) OnConnected(c app.Conn, ok bool) {
	if ok {
		c.Send([]byte("ping"))
	}
}
func (p *pingpong) OnRecv(c app.Conn, data []byte) {
	*p.got = append(*p.got, data...)
	if p.server {
		c.Send(data)
	}
}
func (p *pingpong) OnSent(c app.Conn, n int) {}
func (p *pingpong) OnEOF(c app.Conn)         { c.Close() }
func (p *pingpong) OnClosed(c app.Conn)      {}

// TestCrossCoreFlows: client connections from many cores work even
// though RSS lands their return traffic on arbitrary queues — the shared
// kernel PCB table must demultiplex them (the bug class this package
// had to solve; see DESIGN.md).
func TestCrossCoreFlows(t *testing.T) {
	eng := sim.NewEngine(9)
	var srvGot, cliGot []byte
	srv := New(eng, sockcore.Config{
		IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2}, Cores: 2,
		Factory: func(env app.Env, th, n int) app.Handler {
			_ = env.Listen(80)
			return &pingpong{env: env, server: true, got: &srvGot}
		},
	})
	cli := New(eng, sockcore.Config{
		IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}, Cores: 4,
		Factory: func(env app.Env, th, n int) app.Handler {
			p := &pingpong{env: env, got: &cliGot, dst: wire.Addr4(10, 0, 0, 2)}
			// Two connections per core: their RSS hashes will scatter.
			_ = env.Connect(p.dst, 80, nil)
			_ = env.Connect(p.dst, 80, nil)
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
	eng.RunUntil(sim.Time(10 * time.Millisecond))
	if len(srvGot) != 4*2*4 { // 4 cores × 2 conns × "ping"
		t.Fatalf("server got %d bytes, want 32", len(srvGot))
	}
	if len(cliGot) != 32 {
		t.Fatalf("client got %d bytes, want 32", len(cliGot))
	}
	if srv.ConnCount() != 8 {
		t.Fatalf("server conns = %d", srv.ConnCount())
	}
}

// TestKernelShareDominates: under load, Linux burns most CPU in the
// kernel (the §5.5 premise).
func TestKernelShareDominates(t *testing.T) {
	// Covered quantitatively in harness claims; here check the counters
	// are wired at all after a small run.
	eng := sim.NewEngine(9)
	var got []byte
	srv := New(eng, sockcore.Config{
		IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2}, Cores: 1,
		Factory: func(env app.Env, th, n int) app.Handler {
			_ = env.Listen(80)
			return &pingpong{env: env, server: true, got: &got}
		},
	})
	cli := New(eng, sockcore.Config{
		IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}, Cores: 1,
		Factory: func(env app.Env, th, n int) app.Handler {
			p := &pingpong{env: env, got: new([]byte), dst: wire.Addr4(10, 0, 0, 2)}
			_ = env.Connect(p.dst, 80, nil)
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
	eng.RunUntil(sim.Time(5 * time.Millisecond))
	k, _ := srv.CPUBreakdown()
	if k == 0 {
		t.Fatal("kernel time not accounted")
	}
}

// TestTimerWakeSkipsCurrentTick: a deadline inside the current tick arms
// the wake at the next tick boundary, and the task it wakes fires it.
func TestTimerWakeSkipsCurrentTick(t *testing.T) {
	eng := sim.NewEngine(1)
	h := New(eng, sockcore.Config{IP: wire.Addr4(10, 0, 0, 9), MAC: wire.MAC{2}, Cores: 1,
		Factory: func(env app.Env, th, n int) app.Handler { return &pingpong{env: env, got: new([]byte)} }})
	h.Start()
	tick := int64(timerwheel.DefaultTick)
	eng.RunUntil(sim.Time(10*tick + tick/2))
	fired := false
	h.wheel.Advance(int64(eng.Now()))
	h.wheel.AddArg(int64(eng.Now()), func(any) { fired = true }, nil)
	h.wake.Arm()
	if at, _ := eng.NextEventAt(); at != sim.Time(11*tick) {
		t.Fatalf("next event at %v, want the wake at the tick boundary %v", at, sim.Time(11*tick))
	}
	if eng.Run(); !fired {
		t.Fatal("the woken timer task did not fire the deadline")
	}
}
