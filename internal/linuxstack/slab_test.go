package linuxstack

import (
	"bytes"
	"testing"
	"time"

	"ix/internal/app"
	"ix/internal/fabric"
	"ix/internal/faults"
	"ix/internal/memprobe"
	"ix/internal/mtcpstack"
	"ix/internal/netstack"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/sockcore"
	"ix/internal/wire"
)

// bulkEcho is a byte-exact bulk echo: the client keeps depth msg-byte
// messages in flight, each with its own pattern, and checks every echoed
// byte; the server returns each message once it has all of it, in one
// write.
type bulkEcho struct {
	env    app.Env
	server bool
	msg    int
	rounds int
	depth  int
	// onConn, if set, runs on every new socket (OnAccept / OnConnected).
	onConn func(e *bulkEcho, c app.Conn)

	conn   app.Conn
	closed bool   // OnClosed was delivered
	out    []byte // client: scratch for the message being sent or checked
	pend   []byte // bytes received but not yet a whole message
	sent   int
	done   int
	bad    int
}

// pattern fills the client's scratch with message k's bytes.
func (e *bulkEcho) pattern(k int) []byte {
	for i := range e.out {
		e.out[i] = byte(i*7 + k*13 + 1)
	}
	return e.out
}

func (e *bulkEcho) OnAccept(c app.Conn) {
	e.conn = c
	if e.onConn != nil {
		e.onConn(e, c)
	}
}

func (e *bulkEcho) OnConnected(c app.Conn, ok bool) {
	if !ok {
		return
	}
	e.conn = c
	if e.onConn != nil {
		e.onConn(e, c)
	}
	for i := 0; i < max(e.depth, 1) && e.sent < e.rounds; i++ {
		c.Send(e.pattern(e.sent))
		e.sent++
	}
}

func (e *bulkEcho) OnRecv(c app.Conn, data []byte) {
	e.pend = append(e.pend, data...)
	for len(e.pend) >= e.msg {
		if e.server {
			c.Send(e.pend[:e.msg])
		} else {
			if !bytes.Equal(e.pend[:e.msg], e.pattern(e.done)) {
				e.bad++
			}
			e.done++
			if e.sent < e.rounds {
				c.Send(e.pattern(e.sent))
				e.sent++
			}
		}
		e.pend = append(e.pend[:0], e.pend[e.msg:]...)
	}
}

func (e *bulkEcho) OnSent(app.Conn, int) {}
func (e *bulkEcho) OnEOF(c app.Conn)     { c.Close() }
func (e *bulkEcho) OnClosed(app.Conn)    { e.closed = true }

// stackHost is what the bulk tests use of a host, on either baseline
// stack: both stage through the shared socket core.
type stackHost interface {
	NIC() *nicsim.NIC
	ARP() *netstack.ARPTable
	IP() wire.IPv4
	MAC() wire.MAC
	Start()
	ConnCount() int
	Slabs() (inUse, free int)
	TxChunksInUse() int
	Footprint() memprobe.Footprint
	EachStack(func(*netstack.Stack))
}

// hostTune is what a test may adjust on either host of a pair (zero
// cores means one).
type hostTune struct{ rcvWnd, nicRing, memPages, cores int }

// stack builds hosts of one stack model.
type stack struct {
	name        string
	build       func(eng *sim.Engine, ip wire.IPv4, mac wire.MAC, f app.Factory, tu hostTune) stackHost
	retransmits func(stackHost) uint64
	// poolDrops counts received frames released because an mbuf pool
	// was dry.
	poolDrops func(stackHost) uint64
}

var (
	linux = stack{"linux",
		func(eng *sim.Engine, ip wire.IPv4, mac wire.MAC, f app.Factory, tu hostTune) stackHost {
			return New(eng, sockcore.Config{IP: ip, MAC: mac, Cores: tu.cores, Factory: f, RcvWnd: tu.rcvWnd, NICRing: tu.nicRing, MemPages: tu.memPages})
		},
		func(h stackHost) uint64 { return h.(*Host).Stack().TCP().Retransmits },
		func(h stackHost) (n uint64) {
			for _, k := range h.(*Host).cores {
				n += k.drv.PoolDrops
			}
			return n
		},
	}
	mtcp = stack{"mtcp",
		func(eng *sim.Engine, ip wire.IPv4, mac wire.MAC, f app.Factory, tu hostTune) stackHost {
			return mtcpstack.New(eng, sockcore.Config{IP: ip, MAC: mac, Cores: tu.cores, Factory: f, RcvWnd: tu.rcvWnd, NICRing: tu.nicRing, MemPages: tu.memPages})
		},
		func(h stackHost) uint64 { return h.(*mtcpstack.Host).Stack(0).TCP().Retransmits },
		func(h stackHost) uint64 { return h.(*mtcpstack.Host).PoolDrops() },
	}
	stacks = []stack{linux, mtcp}
)

// bulkPair is a one-core server and client of one stack cabled back to
// back, running one bulkEcho connection.
type bulkPair struct {
	st       stack
	eng      *sim.Engine
	link     *fabric.Link
	srv, cli stackHost
	se, ce   *bulkEcho
	started  bool
}

// newBulkPair builds the pair; tune may adjust either host. The hosts
// start on the first run.
func newBulkPair(st stack, msg, rounds int, tune func(srv, cli *hostTune)) *bulkPair {
	p := &bulkPair{
		st:  st,
		eng: sim.NewEngine(25),
		se:  &bulkEcho{server: true, msg: msg},
		ce:  &bulkEcho{msg: msg, rounds: rounds, out: make([]byte, msg)},
	}
	srvIP := wire.Addr4(10, 0, 0, 2)
	var stu, ctu hostTune
	if tune != nil {
		tune(&stu, &ctu)
	}
	p.srv = st.build(p.eng, srvIP, wire.MAC{2, 0, 0, 0, 0, 2}, func(env app.Env, th, n int) app.Handler {
		_ = env.Listen(80)
		p.se.env = env
		return p.se
	}, stu)
	p.cli = st.build(p.eng, wire.Addr4(10, 0, 0, 1), wire.MAC{2, 0, 0, 0, 0, 1}, func(env app.Env, th, n int) app.Handler {
		p.ce.env = env
		_ = env.Connect(srvIP, 80, nil)
		return p.ce
	}, ctu)
	p.link = cable(p.eng, p.srv, p.cli)
	return p
}

// cable links srv and cli back to back: Port(0) faces the server.
func cable(eng *sim.Engine, srv, cli stackHost) *fabric.Link {
	link := fabric.NewLink(eng, 10*fabric.Gbps, time.Microsecond)
	srv.NIC().AttachPort(link.Port(0))
	cli.NIC().AttachPort(link.Port(1))
	srv.ARP().Learn(cli.IP(), cli.MAC())
	cli.ARP().Learn(srv.IP(), srv.MAC())
	return link
}

// run starts the hosts on first use and runs the engine until t.
func (p *bulkPair) run(t time.Duration) {
	if !p.started {
		p.started = true
		p.srv.Start()
		p.cli.Start()
	}
	p.eng.RunUntil(sim.Time(t))
}

// checkDrained fails t unless both hosts hold no slab, no send chunk and
// no side object.
func (p *bulkPair) checkDrained(t *testing.T) {
	t.Helper()
	for name, h := range map[string]stackHost{"server": p.srv, "client": p.cli} {
		if inUse, free := h.Slabs(); inUse != 0 {
			t.Errorf("%s: %d slabs still attached (%d free)", name, inUse, free)
		}
		if n := h.TxChunksInUse(); n != 0 {
			t.Errorf("%s: %d send chunks still held", name, n)
		}
		if f := h.Footprint(); f.Attached != 0 {
			t.Errorf("%s: %d side objects still attached", name, f.Attached)
		}
	}
}

// slabsMade counts the slabs h ever allocated.
func slabsMade(h stackHost) int {
	inUse, free := h.Slabs()
	return inUse + free
}

// TestBulkEchoSlabsCycle: 200 byte-exact 64 KiB echoes over one pair of
// either stack draw at most four receive slabs between the two hosts —
// the pool recycles rather than allocating per message — drop nothing at
// the TX rings, and leave every slab and send chunk back on a free list
// once the last echo is acknowledged.
func TestBulkEchoSlabsCycle(t *testing.T) {
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			p := newBulkPair(st, 64<<10, 200, nil)
			p.run(200 * time.Millisecond)
			if p.ce.done != 200 || p.ce.bad != 0 {
				t.Fatalf("%d of 200 echoes completed, %d corrupted", p.ce.done, p.ce.bad)
			}
			if made := slabsMade(p.srv) + slabsMade(p.cli); made > 4 {
				t.Errorf("allocated %d slabs for one connection's echoes, want at most 4", made)
			}
			if d := p.srv.NIC().TxDrops() + p.cli.NIC().TxDrops(); d != 0 {
				t.Errorf("%d frames dropped at the TX rings", d)
			}
			p.checkDrained(t)
		})
	}
}

// TestBulkEchoIntactUnderLoss: with two messages pipelined and frames
// lost in both directions, TCP retransmits from taken arena bytes while
// newer bytes are staged behind them. A chunk returned to the pool
// before the engine released its last byte would be refilled by a later
// write while a retransmission still read it; the byte-exact echo
// catches that. Several loss schedules, because the overlap needs a
// loss at the right moment.
func TestBulkEchoIntactUnderLoss(t *testing.T) {
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			for seed := uint64(0); seed < 8; seed++ {
				p := newBulkPair(st, 64<<10, 200, nil)
				p.ce.depth = 2
				for i := 0; i < 2; i++ {
					faults.Interpose(p.eng, p.link.Port(i), 2*seed+uint64(i)).Apply(faults.Config{LossP: 0.05})
				}
				p.run(500 * time.Millisecond)
				if p.ce.done != p.ce.rounds || p.ce.bad != 0 {
					t.Fatalf("loss schedule %d: %d of %d echoes completed, %d corrupted", seed, p.ce.done, p.ce.rounds, p.ce.bad)
				}
				if st.retransmits(p.srv)+st.retransmits(p.cli) == 0 {
					t.Fatalf("loss schedule %d: no retransmission", seed)
				}
				p.checkDrained(t)
			}
		})
	}
}

// abortWhen polls a socket every simulated microsecond and aborts it the
// first time its staging satisfies cond, recording that in *hit.
func abortWhen(hit *bool, cond func(untaken, unreleased, slabs int) bool) func(*bulkEcho, app.Conn) {
	return func(e *bulkEcho, c app.Conn) {
		var poll func()
		poll = func() {
			if e.closed {
				return
			}
			if cond(c.(*sockcore.Sock).Staged()) {
				*hit = true
				c.Abort()
				return
			}
			e.env.After(time.Microsecond, poll)
		}
		e.env.After(time.Microsecond, poll)
	}
}

// TestSlabsReturnOnTeardown: a flow that dies with bytes staged — sent
// bytes TCP has not taken, bytes it took that await their ACK, received
// bytes in the slab chain — returns every send chunk and slab on both
// hosts to its pool, whether it was aborted locally, reset by the peer,
// or reset while its unsent bytes sat behind a closed window; on either
// stack.
func TestSlabsReturnOnTeardown(t *testing.T) {
	unsent := func(untaken, _, _ int) bool { return untaken > 0 }
	parked := func(_, unreleased, _ int) bool { return unreleased > 0 }
	chained := func(_, _, slabs int) bool { return slabs > 0 }
	cases := []struct {
		name     string
		srv, cli func(*bool, *bulkEcho)
		tune     func(srv, cli *hostTune)
	}{
		{name: "abort-unsent", cli: func(hit *bool, e *bulkEcho) { e.onConn = abortWhen(hit, unsent) }},
		{name: "abort-parked", cli: func(hit *bool, e *bulkEcho) { e.onConn = abortWhen(hit, parked) }},
		{name: "peer-rst-mid-chain", srv: func(hit *bool, e *bulkEcho) { e.onConn = abortWhen(hit, chained) }},
		{
			// A window far below one message keeps the client's send arena
			// holding untaken bytes when the server's reset arrives.
			name: "peer-rst-closed-window",
			srv: func(hit *bool, e *bulkEcho) {
				e.onConn = func(e *bulkEcho, c app.Conn) {
					e.env.After(300*time.Microsecond, func() { *hit = true; c.Abort() })
				}
			},
			tune: func(srv, cli *hostTune) { srv.rcvWnd = 8 << 10 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, st := range stacks {
				t.Run(st.name, func(t *testing.T) {
					p := newBulkPair(st, 64<<10, 1000, tc.tune)
					var hit bool
					if tc.srv != nil {
						tc.srv(&hit, p.se)
					}
					if tc.cli != nil {
						tc.cli(&hit, p.ce)
					}
					if tc.name == "peer-rst-closed-window" {
						p.run(250 * time.Microsecond)
						if p.ce.conn == nil || !unsent(p.ce.conn.(*sockcore.Sock).Staged()) {
							t.Fatal("client holds no untaken bytes before the reset")
						}
					}
					p.run(20 * time.Millisecond)
					if !hit {
						t.Fatal("the abort condition never held")
					}
					if n := p.srv.ConnCount() + p.cli.ConnCount(); n != 0 {
						t.Fatalf("%d connections still open", n)
					}
					p.checkDrained(t)
				})
			}
		})
	}
}

// TestTxRingDropsCounted: a TX ring smaller than one congestion window
// drops frames at Post — counted by the NIC, recovered by TCP's
// retransmission, the bytes still delivered intact.
func TestTxRingDropsCounted(t *testing.T) {
	p := newBulkPair(linux, 64<<10, 1, func(srv, cli *hostTune) { cli.nicRing = 4 })
	p.run(100 * time.Millisecond)
	if d := p.cli.NIC().TxDrops(); d == 0 {
		t.Fatal("a 4-descriptor ring took a 64 KiB burst without a drop")
	}
	if d := p.srv.NIC().TxDrops(); d != 0 {
		t.Fatalf("the server's default ring dropped %d frames", d)
	}
	if p.ce.done != 1 || p.ce.bad != 0 {
		t.Fatalf("echo completed %d times, %d corrupted", p.ce.done, p.ce.bad)
	}
}

// sink counts the bytes its connections deliver.
type sink struct{ got int }

func (s *sink) OnAccept(app.Conn)              {}
func (s *sink) OnConnected(app.Conn, bool)     {}
func (s *sink) OnRecv(_ app.Conn, data []byte) { s.got += len(data) }
func (s *sink) OnSent(app.Conn, int)           {}
func (s *sink) OnEOF(c app.Conn)               { c.Close() }
func (s *sink) OnClosed(app.Conn)              {}

// oneWrite writes msg once down every connection that opens.
type oneWrite struct{ msg []byte }

func (w oneWrite) OnAccept(app.Conn) {}
func (w oneWrite) OnConnected(c app.Conn, ok bool) {
	if ok {
		c.Send(w.msg)
	}
}
func (w oneWrite) OnRecv(app.Conn, []byte) {}
func (w oneWrite) OnSent(app.Conn, int)    {}
func (w oneWrite) OnEOF(app.Conn)          {}
func (w oneWrite) OnClosed(app.Conn)       {}

// TestPoolDropsCounted: a pool takes memory a whole 2 MB page at a time,
// so a one-page grant feeds only one of a server's two cores and every
// frame RSS steers to the other finds its mbuf pool dry. PoolDrops must
// count exactly those frames — each frame the NIC put on a ring either
// reached the stack or was a pool drop — while the core holding the page
// keeps receiving; on either stack.
func TestPoolDropsCounted(t *testing.T) {
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			eng := sim.NewEngine(25)
			srvIP := wire.Addr4(10, 0, 0, 2)
			sk := &sink{}
			srv := st.build(eng, srvIP, wire.MAC{2, 0, 0, 0, 0, 2}, func(env app.Env, th, n int) app.Handler {
				_ = env.Listen(80)
				return sk
			}, hostTune{memPages: 1, cores: 2})
			cli := st.build(eng, wire.Addr4(10, 0, 0, 1), wire.MAC{2, 0, 0, 0, 0, 1}, func(env app.Env, th, n int) app.Handler {
				for i := 0; i < 8; i++ {
					_ = env.Connect(srvIP, 80, nil)
				}
				return oneWrite{make([]byte, 64<<10)}
			}, hostTune{})
			cable(eng, srv, cli)
			srv.Start()
			cli.Start()
			eng.RunUntil(sim.Time(50 * time.Millisecond))

			var reached uint64
			srv.EachStack(func(s *netstack.Stack) { reached += s.RxFrames })
			drops := srv.NIC().RxFrames - reached
			t.Logf("%d bytes received, %d frames dropped at the pool", sk.got, drops)
			if drops == 0 || sk.got == 0 {
				t.Fatalf("%d frames dropped, %d bytes received: want both nonzero", drops, sk.got)
			}
			if n := st.poolDrops(srv); n != drops {
				t.Errorf("pool drops = %d, but %d frames on the rings never reached the stack", n, drops)
			}
		})
	}
}
