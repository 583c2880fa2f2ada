package layers

import (
	"io"
	"net"
	"time"

	"ix/internal/app"
	"ix/internal/apps/echo"
	"ix/internal/fabric"
	"ix/internal/harness"
	"ix/internal/ixnet"
	"ix/internal/mem"
	"ix/internal/netstack"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/stats"
	"ix/internal/tcp"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// All is the table, in packet-path order.
var All = []Bench{
	{"sim.call_fire", "ns", func() func(int) int { return callFire(1_000) }},
	{"sim.call_fire_deep", "ns", func() func(int) int { return callFire(100_000) }},
	{"sim.at_cancel", "ns", atCancel},
	{"timerwheel.add_cancel", "ns", func() func(int) int { return wheelAddCancel(96) }},
	{"timerwheel.add_fire", "ns", wheelAddFire},
	{"timerwheel.next_deadline_250k", "ns", func() func(int) int { return wheelAddCancel(250_000) }},
	{"fabric.link_hop", "ns", linkHop},
	{"fabric.switch_hop", "ns", switchHop},
	{"fabric.frame_get_release", "ns", frameGetRelease},
	{"nicsim.deliver_take", "ns", nicDeliverTake},
	{"nicsim.rss", "ns", nicRSS},
	{"nicsim.tx_post", "ns", nicTxPost},
	{"wire.tcp_marshal", "ns", tcpMarshal},
	{"wire.tcp_unmarshal", "ns", tcpUnmarshal},
	{"wire.checksum_64", "ns", func() func(int) int { return checksum(64) }},
	{"wire.checksum_1460", "ns", func() func(int) int { return checksum(1460) }},
	{"mem.mbuf_alloc_free", "ns", mbufAllocFree},
	{"mem.txarena_append_release", "ns", arenaAppendRelease},
	{"netstack.input", "ns", netstackInput},
	{"tcp.rtt_64", "ns", tcpRTT},
	{"tcp.connect_abort", "ns", tcpConnectAbort},
	{"tcp.input_demux_96", "ns", func() func(int) int { return tcpDemux(96) }},
	{"tcp.input_demux_250k", "ns", func() func(int) int { return tcpDemux(250_000) }},
	{"tcp.stream_64k", "ns", tcpStream},
	{"libix.echo_rtt", "ns", func() func(int) int { return echoRTT(harness.ArchIX) }},
	{"linuxstack.echo_rtt", "ns", func() func(int) int { return echoRTT(harness.ArchLinux) }},
	{"mtcpstack.echo_rtt", "ns", func() func(int) int { return echoRTT(harness.ArchMTCP) }},
	{"ixnet.echo_rtt", "ns", ixnetEchoRTT},
	{"stats.hist_record", "ns", histRecord},
	{"harness.build_cluster", "ms", buildCluster},
}

// sink keeps results the compiler must not discard.
var sink uint64

func nop(any) {}

// --- sim ---------------------------------------------------------------

// pendingEngine returns an engine with n far-future events queued: the
// heap depth a schedule-and-fire pays for. Every fixture that fires
// engine events runs over 1k pending, so the event's share of its time
// is sim.call_fire's.
func pendingEngine(n int) *sim.Engine {
	eng := sim.NewEngine(1)
	far := eng.Now().Add(24 * time.Hour)
	for i := 0; i < n; i++ {
		eng.Call(far.Add(time.Duration(i)), nop, nil)
	}
	return eng
}

// callFire schedules one pooled event a microsecond out and fires it,
// over a heap of depth pending.
func callFire(pending int) func(int) int {
	eng := pendingEngine(pending)
	return func(n int) int {
		for i := 0; i < n; i++ {
			eng.CallAfter(time.Microsecond, nop, nil)
			eng.Step()
		}
		return n
	}
}

// atCancel arms and cancels a cancellable event (the idle-wake churn of
// the OS models), over 1k pending.
func atCancel() func(int) int {
	eng := pendingEngine(1_000)
	fn := func() {}
	return func(n int) int {
		for i := 0; i < n; i++ {
			eng.Cancel(eng.After(time.Microsecond, fn))
		}
		return n
	}
}

// --- timerwheel --------------------------------------------------------

// wheelAddCancel arms and cancels a retransmission-style timer on a wheel
// already holding live timers, asking for the next deadline after each
// step as the dataplane does at every quiescence point (the query is also
// what skims cancelled entries off the wheel's deadline heap).
func wheelAddCancel(live int) func(int) int {
	w := timerwheel.New(timerwheel.DefaultTick, 0)
	for i := 0; i < live; i++ {
		w.AddArg(int64(time.Millisecond)+int64(i)*4000, nop, nil)
	}
	return func(n int) int {
		for i := 0; i < n; i++ {
			t := w.AddArg(int64(200*time.Microsecond), nop, nil)
			d, _ := w.NextDeadline()
			w.Cancel(t)
			e, _ := w.NextDeadline()
			sink += uint64(d + e)
		}
		return n
	}
}

// wheelAddFire arms a timer one tick out, advances the wheel past it and
// asks for the next deadline.
func wheelAddFire() func(int) int {
	w := timerwheel.New(timerwheel.DefaultTick, 0)
	now := int64(0)
	return func(n int) int {
		for i := 0; i < n; i++ {
			w.AddArg(now+int64(timerwheel.DefaultTick), nop, nil)
			now += 2 * int64(timerwheel.DefaultTick)
			w.Advance(now)
			d, _ := w.NextDeadline()
			sink += uint64(d)
		}
		return n
	}
}

// --- frames ------------------------------------------------------------

var (
	macA = wire.MAC{2, 0, 0, 0, 0, 1}
	macB = wire.MAC{2, 0, 0, 0, 0, 2}
	ipA  = wire.Addr4(10, 0, 0, 1)
	ipB  = wire.Addr4(10, 0, 0, 2)
)

// tcpFrame builds a valid Ethernet+IPv4+TCP frame from A to B carrying
// payload bytes.
func tcpFrame(payload int) []byte {
	b := make([]byte, wire.EthHdrLen+wire.IPv4HdrLen+wire.TCPHdrLen+payload)
	eth := wire.EthHeader{Dst: macB, Src: macA, EtherType: wire.EtherTypeIPv4}
	eth.Marshal(b)
	iph := wire.IPv4Header{TotalLen: uint16(len(b) - wire.EthHdrLen), TTL: 64, Proto: wire.ProtoTCP, Src: ipA, Dst: ipB}
	iph.Marshal(b[wire.EthHdrLen:])
	seg := b[wire.EthHdrLen+wire.IPv4HdrLen:]
	hdr := wire.TCPHeader{SrcPort: 40000, DstPort: 9000, Seq: 7, Ack: 9, Flags: wire.TCPAck | wire.TCPPsh, Window: 4096, WScale: -1}
	hdr.Marshal(seg)
	wire.SetTCPChecksum(ipA, ipB, seg)
	return b
}

// release is an endpoint that consumes what it is given.
type release struct{}

func (release) Deliver(f *fabric.Frame) { f.Release() }

// --- fabric ------------------------------------------------------------

// linkHop sends a 64 B-payload frame across one cable: serialization,
// the arrival event, delivery.
func linkHop() func(int) int {
	eng := pendingEngine(1_000)
	link := fabric.NewLink(eng, harness.LinkBandwidth, 2*time.Microsecond)
	link.Port(1).Attach(release{})
	pool := fabric.NewFramePool()
	tmpl := tcpFrame(64)
	return func(n int) int {
		for i := 0; i < n; i++ {
			f := pool.Get(len(tmpl))
			copy(f.Data, tmpl)
			link.Port(0).Send(f)
			eng.Step()
		}
		return n
	}
}

// switchHop carries a frame host to host: cable, FDB lookup and
// cut-through forward, cable (three engine events).
func switchHop() func(int) int {
	eng := pendingEngine(1_000)
	sw := fabric.NewSwitch(eng)
	a := fabric.NewLink(eng, harness.LinkBandwidth, 2*time.Microsecond)
	b := fabric.NewLink(eng, harness.LinkBandwidth, 2*time.Microsecond)
	sw.Learn(macA, sw.AddPort(a.Port(1)))
	sw.Learn(macB, sw.AddPort(b.Port(1)))
	b.Port(0).Attach(release{})
	pool := fabric.NewFramePool()
	tmpl := tcpFrame(64)
	return func(n int) int {
		for i := 0; i < n; i++ {
			f := pool.Get(len(tmpl))
			copy(f.Data, tmpl)
			a.Port(0).Send(f)
			eng.Step()
			eng.Step()
			eng.Step()
		}
		return n
	}
}

func frameGetRelease() func(int) int {
	pool := fabric.NewFramePool()
	return func(n int) int {
		for i := 0; i < n; i++ {
			pool.Get(118).Release()
		}
		return n
	}
}

// --- nicsim ------------------------------------------------------------

// nicDeliverTake lands a frame in its RSS queue's ring (the NIC's receive
// entry, classification included) and polls it back out.
func nicDeliverTake() func(int) int {
	nic := nicsim.New(sim.NewEngine(1), macB, nicsim.Config{Queues: 8})
	pool := fabric.NewFramePool()
	tmpl := tcpFrame(64)
	q := nic.RxQueue(nic.RSSQueue(wire.FlowKey{SrcIP: ipA, DstIP: ipB, SrcPort: 40000, DstPort: 9000, Proto: wire.ProtoTCP}))
	return func(n int) int {
		for i := 0; i < n; i++ {
			f := pool.Get(len(tmpl))
			copy(f.Data, tmpl)
			nic.Deliver(f)
			for _, got := range q.Take(1) {
				got.Release()
			}
			q.PostDescriptors(1)
		}
		return n
	}
}

func nicRSS() func(int) int {
	nic := nicsim.New(sim.NewEngine(1), macB, nicsim.Config{Queues: 8})
	k := wire.FlowKey{SrcIP: ipA, DstIP: ipB, SrcPort: 40000, DstPort: 9000, Proto: wire.ProtoTCP}
	return func(n int) int {
		for i := 0; i < n; i++ {
			k.SrcPort++
			sink += uint64(nic.RSSQueue(k))
		}
		return n
	}
}

// nicTxPost posts a frame on a TX queue and lets it cross the attached
// cable (one link hop is part of every post).
func nicTxPost() func(int) int {
	eng := pendingEngine(1_000)
	nic := nicsim.New(eng, macA, nicsim.Config{Queues: 1})
	link := fabric.NewLink(eng, harness.LinkBandwidth, 2*time.Microsecond)
	nic.AttachPort(link.Port(0))
	link.Port(1).Attach(release{})
	pool := fabric.NewFramePool()
	tmpl := tcpFrame(64)
	tx := nic.TxQueue(0)
	return func(n int) int {
		for i := 0; i < n; i++ {
			f := pool.Get(len(tmpl))
			copy(f.Data, tmpl)
			tx.Post(f)
			eng.Step()
		}
		return n
	}
}

// --- wire --------------------------------------------------------------

func tcpMarshal() func(int) int {
	buf := make([]byte, wire.TCPHdrLen+64)
	hdr := wire.TCPHeader{SrcPort: 40000, DstPort: 9000, Seq: 7, Ack: 9, Flags: wire.TCPAck, Window: 4096, WScale: -1}
	return func(n int) int {
		for i := 0; i < n; i++ {
			hdr.Seq++
			hdr.Marshal(buf)
		}
		return n
	}
}

func tcpUnmarshal() func(int) int {
	seg := tcpFrame(64)[wire.EthHdrLen+wire.IPv4HdrLen:]
	return func(n int) int {
		var hdr wire.TCPHeader
		for i := 0; i < n; i++ {
			off, _ := hdr.Unmarshal(seg)
			sink += uint64(off)
		}
		return n
	}
}

func checksum(payload int) func(int) int {
	seg := make([]byte, wire.TCPHdrLen+payload)
	for i := range seg {
		seg[i] = byte(i)
	}
	return func(n int) int {
		for i := 0; i < n; i++ {
			sink += uint64(wire.TCPChecksum(ipA, ipB, seg))
		}
		return n
	}
}

// --- mem ---------------------------------------------------------------

func mbufAllocFree() func(int) int {
	pool := mem.NewMbufPool(mem.NewRegion(8), 0)
	payload := make([]byte, 64)
	return func(n int) int {
		for i := 0; i < n; i++ {
			m := pool.Alloc()
			m.SetData(payload)
			m.Unref()
		}
		return n
	}
}

func arenaAppendRelease() func(int) int {
	var a mem.TxArena
	a.Init(mem.NewTxChunkPool(mem.NewRegion(4), 0))
	msg := make([]byte, 1460)
	return func(n int) int {
		for i := 0; i < n; i++ {
			a.Release(len(a.Append(msg)))
		}
		return n
	}
}

// --- netstack ----------------------------------------------------------

// quiet discards every TCP event.
type quiet struct{}

func (quiet) Knock(*tcp.Listener, wire.FlowKey) bool { return true }
func (quiet) Accepted(*tcp.Conn)                     {}
func (quiet) Connected(*tcp.Conn, bool)              {}
func (quiet) Recv(*tcp.Conn, *mem.Mbuf, []byte)      {}
func (quiet) Sent(*tcp.Conn, int, int)               {}
func (quiet) RemoteClosed(*tcp.Conn)                 {}
func (quiet) Dead(*tcp.Conn, tcp.Reason)             {}

// netstackInput feeds a received UDP datagram through the stack's frame
// entry: Ethernet and IPv4 parse, header checksum, demux to a handler.
// It isolates the layer around the TCP engine (tcp.* covers the engine).
func netstackInput() func(int) int {
	now := int64(0)
	arp := netstack.NewARPTable()
	arp.Learn(ipA, macA)
	arp.Learn(ipB, macB)
	var frame []byte
	mk := func(ip wire.IPv4, mac wire.MAC) *netstack.Stack {
		return netstack.New(netstack.Config{
			LocalIP: ip, LocalMAC: mac,
			Now:   func() int64 { return now },
			Wheel: timerwheel.New(timerwheel.DefaultTick, 0),
			SendFrame: func(f *fabric.Frame) {
				frame = append([]byte(nil), f.Data...)
				f.Release()
			},
			Events: quiet{},
			ARP:    arp,
		})
	}
	a, b := mk(ipA, macA), mk(ipB, macB)
	b.RegisterUDP(7, func(src wire.IPv4, sp, dp uint16, data []byte, buf *mem.Mbuf) { sink += uint64(len(data)) })
	a.SendUDP(ipB, 7000, 7, make([]byte, 64))
	a.Flush()
	if frame == nil {
		panic("layers: netstack emitted no UDP frame")
	}
	pool := mem.NewMbufPool(mem.NewRegion(8), 0)
	return func(n int) int {
		for i := 0; i < n; i++ {
			m := pool.Alloc()
			m.SetData(frame)
			b.Input(m)
			m.Unref()
		}
		return n
	}
}

// --- tcp ---------------------------------------------------------------

// tcpPair is two TCP engines wired back to back: each Output marshals the
// segment (header, payload copy, checksum — the glue a netstack would do)
// into a queue the other side's Input drains.
type tcpPair struct {
	now  int64
	a, b *tcpEnd
	q    []tcpSeg
	free [][]byte
}

type tcpSeg struct {
	to  *tcpEnd
	seg []byte
}

type tcpEnd struct {
	pair  *tcpPair
	ip    wire.IPv4
	peer  *tcpEnd
	stack *tcp.Stack
	wheel *timerwheel.Wheel
	pool  *mem.MbufPool

	// echo makes the end reply to every size bytes received with size
	// bytes (the server of an RPC).
	echo, size int
	got        map[*tcp.Conn]int
	accepted   []*tcp.Conn
	recvd      int
}

func (e *tcpEnd) Knock(*tcp.Listener, wire.FlowKey) bool { return true }
func (e *tcpEnd) Accepted(c *tcp.Conn)                   { e.accepted = append(e.accepted, c) }
func (e *tcpEnd) Connected(*tcp.Conn, bool)              {}
func (e *tcpEnd) Sent(*tcp.Conn, int, int)               {}
func (e *tcpEnd) RemoteClosed(c *tcp.Conn)               { c.Close() }
func (e *tcpEnd) Dead(c *tcp.Conn, _ tcp.Reason)         { delete(e.got, c) }
func (e *tcpEnd) Recv(c *tcp.Conn, _ *mem.Mbuf, data []byte) {
	c.RecvDone(len(data))
	e.recvd += len(data)
	if e.echo == 0 {
		return
	}
	e.got[c] += len(data)
	for e.got[c] >= e.size {
		e.got[c] -= e.size
		c.Send(zeros[:e.echo])
	}
}

var zeros = make([]byte, 64<<10)

func newTCPPair(expected int) *tcpPair {
	p := &tcpPair{}
	mk := func(ip wire.IPv4, seed uint64) *tcpEnd {
		e := &tcpEnd{pair: p, ip: ip, got: map[*tcp.Conn]int{}}
		e.wheel = timerwheel.New(timerwheel.DefaultTick, 0)
		e.pool = mem.NewMbufPool(mem.NewRegion(64), 0)
		e.stack = tcp.NewStack(tcp.Config{
			LocalIP: ip,
			Now:     func() int64 { return p.now },
			Wheel:   e.wheel,
			Output: func(_ *tcp.Conn, hdr *wire.TCPHeader, payload [][]byte) {
				n := hdr.Len()
				for _, b := range payload {
					n += len(b)
				}
				var seg []byte
				if k := len(p.free); k > 0 && cap(p.free[k-1]) >= n {
					seg, p.free = p.free[k-1][:n], p.free[:k-1]
				} else {
					seg = make([]byte, n, max(n, 1600))
				}
				hdr.Marshal(seg)
				off := hdr.Len()
				for _, b := range payload {
					off += copy(seg[off:], b)
				}
				wire.SetTCPChecksum(e.ip, e.peer.ip, seg)
				p.q = append(p.q, tcpSeg{to: e.peer, seg: seg})
			},
			Events:        e,
			Seed:          seed,
			ExpectedConns: expected,
		})
		return e
	}
	p.a, p.b = mk(ipA, 11), mk(ipB, 12)
	p.a.peer, p.b.peer = p.b, p.a
	return p
}

// step delivers queued segments, and whatever they provoke, until both
// engines are quiet.
func (p *tcpPair) step() {
	for i := 0; ; i++ {
		for head := 0; head < len(p.q); head++ {
			d := p.q[head]
			m := d.to.pool.Alloc()
			m.SetData(d.seg)
			d.to.stack.Input(d.to.peer.ip, d.to.ip, m.Bytes(), m)
			m.Unref()
			p.free = append(p.free, d.seg)
		}
		p.q = p.q[:0]
		p.a.stack.Flush()
		p.b.stack.Flush()
		if len(p.q) == 0 {
			return
		}
		if i > 10_000 {
			panic("layers: tcp pair did not quiesce")
		}
	}
}

// open establishes n connections from a to b, spread over enough listen
// ports that no one destination exhausts the ephemeral range.
func (p *tcpPair) open(n int) []*tcp.Conn {
	const perPort = 50_000
	conns := make([]*tcp.Conn, 0, n)
	for port := uint16(9000); len(conns) < n; port++ {
		if _, err := p.b.stack.Listen(port, nil); err != nil {
			panic(err)
		}
		for i := 0; i < perPort && len(conns) < n; i++ {
			c, err := p.a.stack.Connect(ipB, port, uint64(len(conns)))
			if err != nil {
				panic(err)
			}
			conns = append(conns, c)
			if len(conns)%256 == 0 {
				p.step()
			}
		}
	}
	p.step()
	if len(p.b.accepted) != n {
		panic("layers: tcp pair established too few connections")
	}
	return conns
}

// tcpRTT is one 64 B request and its 64 B echo between the two engines,
// ACKs included.
func tcpRTT() func(int) int {
	p := newTCPPair(0)
	p.b.echo, p.b.size = 64, 64
	c := p.open(1)[0]
	return func(n int) int {
		for i := 0; i < n; i++ {
			c.Send(zeros[:64])
			p.step()
		}
		return n
	}
}

// tcpConnectAbort is conn_churn's cycle without the RPC: handshake, then
// RST and both control blocks gone.
func tcpConnectAbort() func(int) int {
	p := newTCPPair(0)
	if _, err := p.b.stack.Listen(9000, nil); err != nil {
		panic(err)
	}
	return func(n int) int {
		for i := 0; i < n; i++ {
			c, err := p.a.stack.Connect(ipB, 9000, 0)
			if err != nil {
				panic(err)
			}
			p.step()
			c.Abort()
			p.step()
			p.b.accepted = p.b.accepted[:0]
		}
		return n
	}
}

// tcpDemux sends one 64 B segment on a connection chosen by striding
// through a population of conns, and returns its ACK: two table demuxes
// per call, in tables of that size.
func tcpDemux(conns int) func(int) int {
	p := newTCPPair(conns)
	cs := p.open(conns)
	next := 0
	return func(n int) int {
		for i := 0; i < n; i++ {
			next = (next + 7919) % len(cs)
			cs[next].Send(zeros[:64])
			p.step()
		}
		return n
	}
}

// tcpStream moves one 64 KiB message a to b: segmentation, the window,
// cumulative ACKs.
func tcpStream() func(int) int {
	p := newTCPPair(0)
	c := p.open(1)[0]
	return func(n int) int {
		for i := 0; i < n; i++ {
			want := p.b.recvd + 64<<10
			for sent := 0; sent < 64<<10; {
				sent += c.Send(zeros[sent : 64<<10])
				p.step()
			}
			if p.b.recvd != want {
				panic("layers: tcp stream lost bytes")
			}
		}
		return n
	}
}

// --- dispatch loops ----------------------------------------------------

// rttCluster runs a two-host, one-connection testbed until at least n
// more RPCs complete.
func rttCluster(cl *harness.Cluster, done func() uint64) func(int) int {
	cl.Start()
	cl.Run(time.Millisecond)
	return func(n int) int {
		start := done()
		for done()-start < uint64(n) {
			cl.Run(200 * time.Microsecond)
		}
		return int(done() - start)
	}
}

// echoRTT is one 64 B echo RPC through arch's whole dispatch loop on both
// hosts (server and client run the same architecture).
func echoRTT(arch harness.Arch) func(int) int {
	cl := harness.NewCluster(1)
	m := echo.NewMetrics()
	srv := cl.AddHost("server", harness.HostSpec{Arch: arch, Cores: 1, Factory: echo.ServerFactory(9000, 64)})
	cl.AddHost("client", harness.HostSpec{Arch: arch, Cores: 1, Factory: echo.ClientFactory(echo.ClientConfig{
		ServerIP: srv.IP(), Port: 9000, MsgSize: 64, Conns: 1, Metrics: m,
	})})
	return rttCluster(cl, m.Msgs.Total)
}

// ixnetEchoRTT is the same RPC with both applications written against
// net.Conn over ixnet fibers on IX; less libix.echo_rtt it is the cost
// of the blocking facade.
func ixnetEchoRTT() func(int) int {
	cl := harness.NewCluster(1)
	var rpcs uint64
	serve := func(c net.Conn) {
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				c.Close()
				return
			}
			if _, err := c.Write(buf); err != nil {
				c.Close()
				return
			}
		}
	}
	srv := cl.AddHost("server", harness.HostSpec{Arch: harness.ArchIX, Cores: 1, Factory: ixnet.Factory(func(n *ixnet.Net) {
		ln, err := n.Listen(9000)
		if err != nil {
			panic(err)
		}
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n.Go(func() { serve(c) })
		}
	})})
	var factory app.Factory = ixnet.Factory(func(n *ixnet.Net) {
		c, err := n.Dial(srv.IP(), 9000)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 64)
		for {
			if _, err := c.Write(buf); err != nil {
				return
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			rpcs++
		}
	})
	cl.AddHost("client", harness.HostSpec{Arch: harness.ArchIX, Cores: 1, Factory: factory})
	return rttCluster(cl, func() uint64 { return rpcs })
}

// --- stats, harness ----------------------------------------------------

func histRecord() func(int) int {
	h := stats.NewHistogram()
	return func(n int) int {
		for i := 0; i < n; i++ {
			h.Record(time.Duration(20_000 + i&1023))
		}
		return n
	}
}

// buildCluster assembles and starts the 24-host echo testbed the
// 96-connection workloads use.
func buildCluster() func(int) int {
	return func(n int) int {
		for i := 0; i < n; i++ {
			cl := harness.NewCluster(int64(i + 1))
			m := echo.NewMetrics()
			srv := cl.AddHost("server", harness.HostSpec{Arch: harness.ArchIX, Cores: 8, Factory: echo.ServerFactory(9000, 64)})
			for h := 0; h < 23; h++ {
				cl.AddHost("client", harness.HostSpec{Arch: harness.ArchLinux, Cores: 4, Factory: echo.ClientFactory(echo.ClientConfig{
					ServerIP: srv.IP(), Port: 9000, MsgSize: 64, Conns: 4, Metrics: m,
				})})
			}
			cl.Start()
			sink += cl.Eng.Processed
		}
		return n
	}
}
