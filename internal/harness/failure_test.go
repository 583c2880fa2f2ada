package harness

import (
	"testing"
	"time"

	"ix/internal/app"
	"ix/internal/apps/echo"
	"ix/internal/core"
	"ix/internal/fabric"
	"ix/internal/libix"
	"ix/internal/sim"
	"ix/internal/wire"
)

// TestOverloadDropsAtNICEdge: §3's claim that queues build up (and drops
// happen) only at the NIC edge. Overload an undersized IX server: the
// RX descriptor rings overflow, drops are counted, and the system keeps
// serving at its capacity with no internal failure.
func TestOverloadDropsAtNICEdge(t *testing.T) {
	cl := NewCluster(21)
	m := echo.NewMetrics()
	cl.AddHost("server", HostSpec{
		Arch: ArchIX, Cores: 1, BatchBound: 16,
		Factory: echo.ServerFactory(9000, 64),
	})
	srv := cl.IXServer(0)
	for i := 0; i < 8; i++ {
		cl.AddHost("client", HostSpec{
			Arch: ArchMTCP, Cores: 4, // mTCP clients push harder per core
			Factory: echo.ClientFactory(echo.ClientConfig{
				ServerIP: srv.IP(), Port: 9000, MsgSize: 64, Rounds: 1024,
				Conns: 16, Metrics: m,
			}),
		})
	}
	cl.Start()
	cl.Run(30 * time.Millisecond)
	m.Running = false
	if m.Msgs.Total() == 0 {
		t.Fatal("server made no progress under overload")
	}
	t.Logf("overload: %d msgs, %d NIC-edge drops", m.Msgs.Total(), srv.RxDrops())
	// Retransmissions recovered whatever was dropped; steady service.
	rate := float64(m.Msgs.Total()) / 0.03
	if rate < 500_000 {
		t.Fatalf("rate %.0f too low — overload collapsed the server", rate)
	}
}

// streamer opens conns connections to a sink and streams size bytes
// down each one that connects, parking on the send-ready condition when
// the stack takes a short write; connections that fail are let go.
type streamer struct {
	left map[app.Conn]int
	buf  []byte
}

func streamerFactory(dst wire.IPv4, port uint16, conns, size int) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		for i := 0; i < conns; i++ {
			_ = env.Connect(dst, port, nil)
		}
		return &streamer{left: map[app.Conn]int{}, buf: make([]byte, size)}
	}
}

func (s *streamer) pump(c app.Conn) {
	for s.left[c] > 0 {
		n := c.Send(s.buf[len(s.buf)-s.left[c]:])
		s.left[c] -= n
		if n == 0 {
			return
		}
	}
	c.Close()
}

func (s *streamer) OnConnected(c app.Conn, ok bool) {
	if ok {
		s.left[c] = len(s.buf)
		s.pump(c)
	}
}
func (s *streamer) OnSendReady(c app.Conn)  { s.pump(c) }
func (s *streamer) OnAccept(app.Conn)       {}
func (s *streamer) OnRecv(app.Conn, []byte) {}
func (s *streamer) OnSent(app.Conn, int)    {}
func (s *streamer) OnEOF(app.Conn)          {}
func (s *streamer) OnClosed(c app.Conn)     { delete(s.left, c) }

// TestMemoryPressure: a dataplane whose large-page grant is too small
// for every elastic thread. A pool takes memory a whole 2 MB page at a
// time, so a one-page grant feeds the first thread's mbuf pool and leaves
// the other's dry: every frame RSS steers there is dropped at the pool
// and counted, while the thread holding the memory keeps serving, and
// every mbuf is back once traffic stops.
func TestMemoryPressure(t *testing.T) {
	eng := sim.NewEngine(22)
	srvIP := wire.Addr4(10, 0, 0, 2)
	var got, eofs int
	srv := core.New(eng, core.Config{
		IP: srvIP, MAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Threads: 2, Seed: 2, MemPages: 1,
		User: libix.Program(sinkFactory(9000, &got, &eofs)),
	})
	cli := core.New(eng, core.Config{
		IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1},
		Threads: 1, Seed: 1,
		User: libix.Program(streamerFactory(srvIP, 9000, 8, 2<<20)),
	})
	link := fabric.NewLink(eng, LinkBandwidth, linkLatency)
	srv.NIC().AttachPort(link.Port(0))
	cli.NIC().AttachPort(link.Port(1))
	srv.ARP().Learn(cli.IP(), cli.MAC())
	cli.ARP().Learn(srv.IP(), srv.MAC())
	srv.Start()
	cli.Start()

	poolDrops := func() uint64 { _, _, _, n := srv.LossTotals(); return n }
	eng.RunUntil(sim.Time(2 * time.Millisecond))
	early := got
	if poolDrops() == 0 || early == 0 {
		t.Fatalf("after 2ms: %d pool drops, %d bytes received; want both nonzero", poolDrops(), early)
	}
	eng.RunUntil(sim.Time(6 * time.Millisecond))
	if got <= early {
		t.Fatalf("service stopped under memory pressure: %d bytes at 2ms, %d at 6ms", early, got)
	}
	eng.RunUntil(sim.Time(300 * time.Millisecond))
	t.Logf("%d bytes over %d streams, %d pool drops", got, eofs, poolDrops())
	if n := srv.MbufsInUse() + cli.MbufsInUse(); n != 0 {
		t.Fatalf("%d mbufs still held after the drain", n)
	}
}
