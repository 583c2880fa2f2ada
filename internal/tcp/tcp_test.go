package tcp

import (
	"testing"
	"time"

	"ix/internal/mem"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// testNet wires two stacks back to back with a controllable virtual
// clock, per-direction loss/reorder injection, and event recording.
type testNet struct {
	t     *testing.T
	now   int64
	a, b  *side
	queue []delivery
	// drop, when set, discards matching segments (loss injection).
	drop func(from *side, hdr *wire.TCPHeader, payload []byte) bool
}

type delivery struct {
	to       *side
	src, dst wire.IPv4
	seg      []byte
}

type side struct {
	name  string
	ip    wire.IPv4
	stack *Stack
	wheel *timerwheel.Wheel
	pool  *mem.MbufPool
	net   *testNet

	// Recorded events.
	accepted  []*Conn
	connected map[*Conn]bool
	recvd     map[*Conn][]byte
	sent      map[*Conn]int
	released  map[*Conn]int
	dead      map[*Conn]Reason
	eof       map[*Conn]bool

	// onRelease, when set, observes tx_sent release reports.
	onRelease func(c *Conn, released int)
}

func (s *side) Accepted(c *Conn)           { s.accepted = append(s.accepted, c) }
func (s *side) Connected(c *Conn, ok bool) { s.connected[c] = ok }
func (s *side) Recv(c *Conn, buf *mem.Mbuf, data []byte) {
	s.recvd[c] = append(s.recvd[c], data...)
}
func (s *side) Sent(c *Conn, acked, released int) {
	s.sent[c] += acked
	s.released[c] += released
	if s.onRelease != nil && released > 0 {
		s.onRelease(c, released)
	}
}
func (s *side) RemoteClosed(c *Conn) { s.eof[c] = true }
func (s *side) Dead(c *Conn, reason Reason) {
	s.dead[c] = reason
}

func newTestNet(t *testing.T, cfgMod func(*Config)) *testNet {
	n := &testNet{t: t}
	mk := func(name string, ip wire.IPv4) *side {
		s := &side{
			name: name, ip: ip, net: n,
			connected: map[*Conn]bool{},
			recvd:     map[*Conn][]byte{},
			sent:      map[*Conn]int{},
			released:  map[*Conn]int{},
			dead:      map[*Conn]Reason{},
			eof:       map[*Conn]bool{},
		}
		s.wheel = timerwheel.New(timerwheel.DefaultTick, 0)
		s.pool = mem.NewMbufPool(mem.NewRegion(4), 0)
		cfg := Config{
			LocalIP: ip,
			Now:     func() int64 { return n.now },
			Wheel:   s.wheel,
			Output: func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {
				nbytes := 0
				for _, p := range payload {
					nbytes += len(p)
				}
				seg := make([]byte, hdr.Len()+nbytes)
				hdr.Marshal(seg)
				off := hdr.Len()
				for _, p := range payload {
					off += copy(seg[off:], p)
				}
				peer := n.a
				if s == n.a {
					peer = n.b
				}
				wire.SetTCPChecksum(s.ip, peer.ip, seg)
				if n.drop != nil && n.drop(s, hdr, flatten(payload)) {
					return
				}
				n.queue = append(n.queue, delivery{to: peer, src: s.ip, dst: peer.ip, seg: seg})
			},
			Events: s,
			Seed:   uint64(len(name)) + 7,
		}
		if cfgMod != nil {
			cfgMod(&cfg)
		}
		s.stack = NewStack(cfg)
		return s
	}
	n.a = mk("a", wire.Addr4(10, 0, 0, 1))
	n.b = mk("b", wire.Addr4(10, 0, 0, 2))
	return n
}

func flatten(p [][]byte) []byte {
	var out []byte
	for _, b := range p {
		out = append(out, b...)
	}
	return out
}

// step delivers all queued segments (and any they generate) and flushes
// pending ACKs until quiescent.
func (n *testNet) step() {
	for i := 0; i < 100; i++ {
		q := n.queue
		n.queue = nil
		for _, d := range q {
			buf := d.to.pool.Alloc()
			buf.SetData(d.seg) // hold segment bytes for zero-copy views
			d.to.stack.Input(d.src, d.dst, buf.Bytes(), buf)
			buf.Unref()
		}
		n.a.stack.Flush()
		n.b.stack.Flush()
		if len(n.queue) == 0 {
			return
		}
	}
	n.t.Fatal("network did not quiesce")
}

// advance moves the clock and runs timers.
func (n *testNet) advance(d time.Duration) {
	n.now += int64(d)
	n.a.wheel.Advance(n.now)
	n.b.wheel.Advance(n.now)
	n.step()
}

// open establishes a connection from a to b:port and returns both ends.
func (n *testNet) open(t *testing.T, port uint16) (client, server *Conn) {
	t.Helper()
	if _, err := n.b.stack.Listen(port, nil); err != nil {
		t.Fatal(err)
	}
	c, err := n.a.stack.Connect(n.b.ip, port, 0xc0de)
	if err != nil {
		t.Fatal(err)
	}
	n.step()
	if !n.a.connected[c] {
		t.Fatal("client not connected")
	}
	if len(n.b.accepted) == 0 {
		t.Fatal("server did not accept")
	}
	return c, n.b.accepted[len(n.b.accepted)-1]
}

func TestHandshake(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	if c.State() != StateEstablished || s.State() != StateEstablished {
		t.Fatalf("states: %v / %v", c.State(), s.State())
	}
	if c.Key().Reverse() != s.Key() {
		t.Fatalf("keys inconsistent: %v vs %v", c.Key(), s.Key())
	}
	if n.a.stack.Conn(c.ID()) != c || n.b.stack.Conn(s.ID()) != s {
		t.Fatal("a connection's id does not name it in its stack")
	}
}

func TestDataTransferBothWays(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	if got := c.Send([]byte("hello from a")); got != 12 {
		t.Fatalf("send accepted %d", got)
	}
	n.step()
	if string(n.b.recvd[s]) != "hello from a" {
		t.Fatalf("b received %q", n.b.recvd[s])
	}
	s.Send([]byte("hi back"))
	n.step()
	if string(n.a.recvd[c]) != "hi back" {
		t.Fatalf("a received %q", n.a.recvd[c])
	}
	// Acks flowed: sent events report acked bytes.
	if n.a.sent[c] != 12 || n.b.sent[s] != 7 {
		t.Fatalf("sent events: a=%d b=%d", n.a.sent[c], n.b.sent[s])
	}
}

func TestLargeTransferSegmentation(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	msg := make([]byte, 100_000)
	for i := range msg {
		msg[i] = byte(i)
	}
	sent := 0
	for sent < len(msg) {
		k := c.Send(msg[sent:])
		sent += k
		n.step()
		if k == 0 {
			n.advance(time.Millisecond)
		}
	}
	n.step()
	got := n.b.recvd[s]
	if len(got) != len(msg) {
		t.Fatalf("received %d of %d bytes", len(got), len(msg))
	}
	for i := range got {
		if got[i] != msg[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
	if n.a.stack.Retransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", n.a.stack.Retransmits)
	}
}

func TestSendvScatterGather(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	k := c.Sendv([][]byte{[]byte("one,"), []byte("two,"), []byte("three")}, nil)
	if k != 13 {
		t.Fatalf("sendv accepted %d", k)
	}
	n.step()
	if string(n.b.recvd[s]) != "one,two,three" {
		t.Fatalf("received %q", n.b.recvd[s])
	}
}

func TestWindowTrimAndReopen(t *testing.T) {
	n := newTestNet(t, func(c *Config) { c.RcvWnd = 4096 })
	c, s := n.open(t, 80)
	big := make([]byte, 64<<10)
	acc := c.Send(big)
	if acc >= len(big) {
		t.Fatalf("small peer window accepted everything (%d)", acc)
	}
	n.step()
	// The receiver holds data (no RecvDone): window closes at 4 KB.
	if len(n.b.recvd[s]) != 4096 {
		t.Fatalf("receiver got %d, want 4096 (window)", len(n.b.recvd[s]))
	}
	more := c.Send(big[acc:])
	if more != 0 {
		t.Fatalf("send beyond closed window accepted %d", more)
	}
	// recv_done opens the window; the window-update ACK lets a resume.
	s.RecvDone(4096)
	n.step()
	if c.UsableWindow() == 0 {
		t.Fatal("window did not reopen after recv_done")
	}
	again := c.Send(big[acc:])
	if again == 0 {
		t.Fatal("send after window reopen still trimmed to zero")
	}
}

func TestRetransmitOnLoss(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	dropped := false
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool {
		if from == n.a && len(payload) > 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	c.Send([]byte("lost once"))
	n.step()
	if len(n.b.recvd[s]) != 0 {
		t.Fatal("segment should have been dropped")
	}
	// RTO fires (initial RTO 1ms, backoff-safe margin).
	n.advance(5 * time.Millisecond)
	if string(n.b.recvd[s]) != "lost once" {
		t.Fatalf("retransmission did not deliver: %q", n.b.recvd[s])
	}
	if n.a.stack.Retransmits == 0 {
		t.Fatal("retransmit not counted")
	}
}

func TestFastRetransmit(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	// Warm the RTT estimator so RTO != initial.
	c.Send([]byte("warm"))
	n.step()
	// Drop the first data segment of a burst; later ones arrive and
	// generate dup ACKs.
	first := true
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool {
		if from == n.a && len(payload) == 1000 && first {
			first = false
			return true
		}
		return false
	}
	chunk := make([]byte, 1000)
	for i := 0; i < 5; i++ {
		c.Sendv([][]byte{chunk}, nil)
	}
	n.step()
	if n.a.stack.FastRetransmits != 1 {
		t.Fatalf("fast retransmits = %d, want 1", n.a.stack.FastRetransmits)
	}
	if len(n.b.recvd[s]) != 4+5000 {
		t.Fatalf("receiver got %d bytes, want 5004", len(n.b.recvd[s]))
	}
}

// TestBurstLossRecoversWithoutSerialRTOs: a contiguous burst of lost
// segments recovers within ONE retransmission timeout — each partial
// ACK during recovery retransmits the next hole immediately (NewReno,
// RFC 6582). Without that, k lost segments cost k serial RTOs with
// exponential backoff (1+2+4+... ms here), and this test's single
// 1.5 ms advance could not complete the transfer.
func TestBurstLossRecoversWithoutSerialRTOs(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	const segs, segLen = 8, 500
	base := c.sndUna
	seen := map[uint32]bool{}
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool {
		if from != n.a || len(payload) == 0 {
			return false
		}
		idx := int(hdr.Seq-base) / segLen
		if !seen[hdr.Seq] {
			seen[hdr.Seq] = true
			// First transmission of segments 2..6 is lost (a 5-segment
			// hole); 0, 1 and 7 get through — only one dup ACK, so fast
			// retransmit cannot mask the timeout path.
			return idx >= 2 && idx <= 6
		}
		return false
	}
	chunk := make([]byte, segLen)
	for i := 0; i < segs; i++ {
		c.Sendv([][]byte{chunk}, nil)
	}
	n.step()
	if got := len(n.b.recvd[s]); got != 2*segLen {
		t.Fatalf("pre-RTO delivery = %d bytes, want %d", got, 2*segLen)
	}
	// One RTO (initial 1 ms) plus margin — NOT enough for serial
	// timeouts with backoff.
	n.advance(1500 * time.Microsecond)
	if got := len(n.b.recvd[s]); got != segs*segLen {
		t.Fatalf("received %d bytes within one RTO, want %d (burst holes "+
			"must retransmit on partial ACKs, not serial RTOs)", got, segs*segLen)
	}
	if n.a.sent[c] != segs*segLen {
		t.Fatalf("acked %d, want %d", n.a.sent[c], segs*segLen)
	}
	if f := c.flight(c.stack()); f != nil && f.inRecovery {
		t.Fatal("connection still in recovery after full ACK")
	}
	// Recovery exited cleanly: post-recovery traffic must not trigger
	// spurious retransmissions.
	rexmit := n.a.stack.Retransmits
	c.Send([]byte("post-recovery"))
	n.step()
	if n.a.stack.Retransmits != rexmit {
		t.Fatalf("clean post-recovery send retransmitted (%d -> %d)",
			rexmit, n.a.stack.Retransmits)
	}
	if got := string(n.b.recvd[s][segs*segLen:]); got != "post-recovery" {
		t.Fatalf("post-recovery delivery %q", got)
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	// Hold back the first segment; deliver it after the rest.
	var held []delivery
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool {
		return false
	}
	c.Sendv([][]byte{make([]byte, 1000)}, nil)
	// Steal the queued delivery.
	held = append(held, n.queue...)
	n.queue = nil
	c.Sendv([][]byte{[]byte("tail")}, nil)
	n.step()
	if len(n.b.recvd[s]) != 0 {
		t.Fatal("out-of-order data delivered in order?!")
	}
	// Now release the held first segment.
	n.queue = append(n.queue, held...)
	n.step()
	if len(n.b.recvd[s]) != 1004 {
		t.Fatalf("after reassembly got %d bytes, want 1004", len(n.b.recvd[s]))
	}
}

// TestDuplicateOutOfOrderSegment: the same out-of-order segment arriving
// twice, each copy in its own mbuf as a NIC would hand it up, is queued
// once. The duplicate's mbuf goes straight back to the pool, the bytes
// reach the app once when the hole fills, and every mbuf is returned.
func TestDuplicateOutOfOrderSegment(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	c.Sendv([][]byte{[]byte("head")}, nil)
	held := n.queue
	n.queue = nil
	c.Sendv([][]byte{[]byte("tail")}, nil)
	if len(n.queue) != 1 {
		t.Fatalf("queued %d segments for one send, want 1", len(n.queue))
	}
	n.queue = append(n.queue, n.queue[0])
	n.step()

	if got := len(s.flight(s.stack()).reasm.segs); got != 1 {
		t.Fatalf("reassembly queue holds %d copies, want 1", got)
	}
	if s.flight(s.stack()).reasm.bytes != 4 {
		t.Fatalf("reassembly bytes = %d, want 4", s.flight(s.stack()).reasm.bytes)
	}
	if got := n.b.pool.InUse(); got != 1 {
		t.Fatalf("%d mbufs referenced after the duplicate, want 1", got)
	}

	n.queue = append(n.queue, held...)
	n.step()
	if got := string(n.b.recvd[s]); got != "headtail" {
		t.Fatalf("app received %q, want %q", got, "headtail")
	}
	if got := n.b.pool.InUse(); got != 0 {
		t.Fatalf("%d mbufs in use after the hole filled, want 0", got)
	}
}

func TestAbortRST(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	c.Abort()
	n.step()
	if n.b.dead[s] != ReasonReset {
		t.Fatalf("server dead reason = %v, want reset", n.b.dead[s])
	}
	if n.a.dead[c] != ReasonClosed {
		t.Fatalf("client dead reason = %v, want closed", n.a.dead[c])
	}
	if n.a.stack.ConnCount() != 0 || n.b.stack.ConnCount() != 0 {
		t.Fatal("connections leaked")
	}
}

func TestOrderlyClose(t *testing.T) {
	n := newTestNet(t, func(c *Config) { c.TimeWait = 100 * time.Microsecond })
	c, s := n.open(t, 80)
	c.Close()
	n.step()
	if !n.b.eof[s] {
		t.Fatal("server did not see remote close")
	}
	if s.State() != StateCloseWait {
		t.Fatalf("server state = %v, want CloseWait", s.State())
	}
	s.Close()
	n.step()
	if s.State() != StateClosed && n.b.dead[s] != ReasonClosed {
		t.Fatalf("server not closed: %v", s.State())
	}
	if c.State() != StateTimeWait {
		t.Fatalf("client state = %v, want TimeWait", c.State())
	}
	n.advance(time.Millisecond)
	if n.a.stack.ConnCount() != 0 {
		t.Fatal("TIME_WAIT did not expire")
	}
}

func TestConnectRefused(t *testing.T) {
	n := newTestNet(t, nil)
	c, err := n.a.stack.Connect(n.b.ip, 9999, 0) // nobody listening
	if err != nil {
		t.Fatal(err)
	}
	n.step()
	if ok, seen := n.a.connected[c]; !seen || ok {
		t.Fatalf("connected event: ok=%v seen=%v, want refused", ok, seen)
	}
}

func TestChecksumValidation(t *testing.T) {
	n := newTestNet(t, nil)
	_, s := n.open(t, 80)
	// Inject a corrupted segment directly.
	hdr := wire.TCPHeader{SrcPort: 12345, DstPort: 80, Seq: 1, Flags: wire.TCPAck, WScale: -1}
	seg := make([]byte, hdr.Len())
	hdr.Marshal(seg)
	wire.SetTCPChecksum(n.a.ip, n.b.ip, seg)
	seg[4] ^= 0xff // corrupt seq after checksumming
	before := n.b.stack.BadChecksums
	n.b.stack.Input(n.a.ip, n.b.ip, seg, nil)
	if n.b.stack.BadChecksums != before+1 {
		t.Fatal("corrupted segment not counted")
	}
	_ = s
}

func TestPortProbing(t *testing.T) {
	probed := 0
	n := newTestNet(t, nil)
	// Recreate a's stack with a PortOK that accepts only multiples of 4
	// (stand-in for "hashes to my queue").
	n.a.stack = NewStack(Config{
		LocalIP: n.a.ip,
		Now:     func() int64 { return n.now },
		Wheel:   n.a.wheel,
		Output:  func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {},
		Events:  n.a,
		PortOK: func(p uint16, dst wire.IPv4, dport uint16) bool {
			probed++
			return p%4 == 0
		},
	})
	c, err := n.a.stack.Connect(n.b.ip, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.key.SrcPort%4 != 0 {
		t.Fatalf("port %d does not satisfy the probe", c.key.SrcPort)
	}
	if probed == 0 {
		t.Fatal("probe not consulted")
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	n := newTestNet(t, nil)
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		c, err := n.a.stack.Connect(n.b.ip, 80, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[c.key.SrcPort] {
			t.Fatalf("port %d reused while in use", c.key.SrcPort)
		}
		seen[c.key.SrcPort] = true
	}
}

func TestMigration(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	// Migrate the server-side connection to a fresh stack on the same
	// host (elastic thread rebalance) and keep exchanging data.
	s2side := &side{
		name: "b2", ip: n.b.ip, net: n,
		connected: map[*Conn]bool{}, recvd: map[*Conn][]byte{},
		sent: map[*Conn]int{}, dead: map[*Conn]Reason{}, eof: map[*Conn]bool{},
	}
	s2side.wheel = timerwheel.New(timerwheel.DefaultTick, 0)
	dst := NewStack(Config{
		LocalIP: n.b.ip,
		Now:     func() int64 { return n.now },
		Wheel:   s2side.wheel,
		Output: func(cc *Conn, hdr *wire.TCPHeader, payload [][]byte) {
			// Reuse b's output path by temporarily routing through the
			// original side's config: emit to a.
			nb := 0
			for _, p := range payload {
				nb += len(p)
			}
			seg := make([]byte, hdr.Len()+nb)
			hdr.Marshal(seg)
			off := hdr.Len()
			for _, p := range payload {
				off += copy(seg[off:], p)
			}
			wire.SetTCPChecksum(n.b.ip, n.a.ip, seg)
			n.queue = append(n.queue, delivery{to: n.a, src: n.b.ip, dst: n.a.ip, seg: seg})
		},
		Events: s2side,
	})
	s = dst.Conn(n.b.stack.Migrate(s.ID(), dst))
	if n.b.stack.ConnCount() != 0 || dst.ConnCount() != 1 {
		t.Fatalf("migration counts: src=%d dst=%d", n.b.stack.ConnCount(), dst.ConnCount())
	}
	// Traffic must now be processed by dst. Route a→b deliveries there.
	c.Send([]byte("post-migration"))
	for _, d := range n.queue {
		dst.Input(d.src, d.dst, d.seg, nil)
	}
	n.queue = nil
	dst.Flush()
	if string(s2side.recvd[s]) != "post-migration" {
		t.Fatalf("migrated conn received %q", s2side.recvd[s])
	}
}

func TestDelayedAck(t *testing.T) {
	n := newTestNet(t, func(c *Config) { c.DelAck = 100 * time.Microsecond })
	c, s := n.open(t, 80)
	_ = s
	segsBefore := n.b.stack.SegsOut
	c.Send([]byte("x"))
	n.step()
	if n.b.stack.SegsOut != segsBefore {
		t.Fatalf("pure ACK sent immediately despite delack (out=%d)", n.b.stack.SegsOut-segsBefore)
	}
	// After the delack timeout, the ACK goes out.
	n.advance(200 * time.Microsecond)
	if n.b.stack.SegsOut != segsBefore+1 {
		t.Fatalf("delayed ACK not sent: %d", n.b.stack.SegsOut-segsBefore)
	}
	// Second-segment rule: two quick segments force an immediate ACK.
	segsBefore = n.b.stack.SegsOut
	c.Send([]byte("y"))
	n.step()
	c.Send([]byte("z"))
	n.step()
	if n.b.stack.SegsOut != segsBefore+1 {
		t.Fatalf("2-segment ACK rule: sent %d pure acks, want 1", n.b.stack.SegsOut-segsBefore)
	}
}

func TestSynBacklogLimit(t *testing.T) {
	n := newTestNet(t, func(c *Config) { c.SynBacklog = 2 })
	if _, err := n.b.stack.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	// Inject 3 SYNs from different ports without completing handshakes.
	for i := 0; i < 3; i++ {
		hdr := wire.TCPHeader{SrcPort: uint16(30000 + i), DstPort: 80, Seq: 100, Flags: wire.TCPSyn, Window: 1000, WScale: -1, MSS: 1460}
		seg := make([]byte, hdr.Len())
		hdr.Marshal(seg)
		wire.SetTCPChecksum(n.a.ip, n.b.ip, seg)
		n.b.stack.Input(n.a.ip, n.b.ip, seg, nil)
	}
	if n.b.stack.ConnCount() != 2 {
		t.Fatalf("embryonic conns = %d, want 2 (backlog)", n.b.stack.ConnCount())
	}
}

func TestRTTEstimation(t *testing.T) {
	n := newTestNet(t, nil)
	c, _ := n.open(t, 80)
	// Deliver the ack 300µs after send: srtt should move toward 300µs.
	c.Send([]byte("timed"))
	n.advance(300 * time.Microsecond)
	if c.srtt == 0 {
		t.Fatal("no RTT sample taken")
	}
	if srtt := time.Duration(c.srtt); srtt < 200*time.Microsecond || srtt > 400*time.Microsecond {
		t.Fatalf("srtt = %v, want ~300µs", srtt)
	}
	if rto := time.Duration(c.rto); rto < c.stack().cfg.MinRTO {
		t.Fatalf("rto %v below floor", rto)
	}
}

// TestRTORule pins the retransmission timeout a connection stores, with
// the expected values written out rather than read from the constants:
// 1 ms before any RTT sample, exactly the 200 µs floor after samples whose
// SRTT + 4·RTTVAR is below it, and a doubling per timeout up to the 4 s
// cap. Each sample is a 10 µs round trip; the timeouts follow them with
// every segment from the client lost, its first SYN included when no
// sample precedes them.
func TestRTORule(t *testing.T) {
	const us, ms = time.Microsecond, time.Millisecond
	for _, tc := range []struct {
		name              string
		samples, timeouts int
		want              time.Duration
	}{
		{"no sample", 0, 0, 1 * ms},
		{"one sample below the floor", 1, 0, 200 * us},
		{"three samples below the floor", 3, 0, 200 * us},
		{"handshake timeout", 0, 1, 2 * ms},
		{"eleven handshake timeouts", 0, 11, 2048 * ms},
		{"twelve handshake timeouts reach the cap", 0, 12, 4000 * ms},
		{"one timeout", 1, 1, 400 * us},
		{"two timeouts", 1, 2, 800 * us},
		{"fourteen timeouts", 1, 14, 3276800 * us},
		{"fifteen timeouts reach the cap", 1, 15, 4000 * ms},
		{"sixteen timeouts stay at the cap", 1, 16, 4000 * ms},
		{"twenty timeouts stay at the cap", 1, 20, 4000 * ms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNet(t, func(c *Config) { c.MaxRexmits = 20 })
			lose := func(from *side, _ *wire.TCPHeader, _ []byte) bool { return from == n.a }
			var c *Conn
			if tc.samples == 0 {
				n.drop = lose // the first SYN too
				var err error
				if c, err = n.a.stack.Connect(n.b.ip, 80, 0); err != nil {
					t.Fatal(err)
				}
			} else {
				c, _ = n.open(t, 80)
			}
			for range tc.samples {
				c.Send([]byte("timed"))
				n.advance(10 * us)
			}
			if tc.timeouts > 0 && tc.samples > 0 {
				n.drop = lose
				c.Send([]byte("lost"))
			}
			for range tc.timeouts {
				// Past the deadline by one wheel tick, short of the next.
				n.advance(time.Duration(c.rto) + timerwheel.DefaultTick)
			}
			if got := time.Duration(c.rto); got != tc.want {
				t.Fatalf("rto = %v, want %v", got, tc.want)
			}
			if tc.timeouts > 0 && n.a.stack.Retransmits != uint64(tc.timeouts) {
				t.Fatalf("%d retransmissions, want %d", n.a.stack.Retransmits, tc.timeouts)
			}
		})
	}
}

func TestConnectionTimeout(t *testing.T) {
	n := newTestNet(t, func(c *Config) { c.MaxRexmits = 2 })
	c, s := n.open(t, 80)
	_ = s
	// Black-hole everything from a.
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool { return from == n.a }
	c.Send([]byte("into the void"))
	for i := 0; i < 40; i++ {
		n.advance(5 * time.Millisecond)
	}
	reason, died := n.a.dead[c]
	if !died || reason != ReasonTimeout {
		t.Fatalf("dead = %v (died=%v), want timeout", reason, died)
	}
}

// TestBatchedSynAdmission: SYNs arriving within one processing batch are
// admitted immediately (embryonic state, RTO armed) but their SYN-ACKs
// coalesce into the batch-boundary Flush, leaving as one group — no
// per-SYN emission in the middle of protocol processing.
func TestBatchedSynAdmission(t *testing.T) {
	n := newTestNet(t, nil)
	if _, err := n.b.stack.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	// Three active opens queue three SYNs.
	for i := 0; i < 3; i++ {
		if _, err := n.a.stack.Connect(n.b.ip, 80, 0); err != nil {
			t.Fatal(err)
		}
	}
	syns := n.queue
	n.queue = nil
	if len(syns) != 3 {
		t.Fatalf("expected 3 SYNs in flight, got %d", len(syns))
	}
	// Deliver the batch without flushing: admission happens, replies wait.
	for _, d := range syns {
		buf := d.to.pool.Alloc()
		buf.SetData(d.seg)
		d.to.stack.Input(d.src, d.dst, buf.Bytes(), buf)
		buf.Unref()
	}
	if got := n.b.stack.SynsAdmitted; got != 3 {
		t.Fatalf("SynsAdmitted = %d, want 3", got)
	}
	if len(n.queue) != 0 {
		t.Fatalf("%d frames emitted before Flush; SYN-ACKs must coalesce at the batch boundary", len(n.queue))
	}
	n.b.stack.Flush()
	if len(n.queue) != 3 {
		t.Fatalf("Flush emitted %d frames, want 3 SYN-ACKs", len(n.queue))
	}
	for _, d := range n.queue {
		var hdr wire.TCPHeader
		if _, err := hdr.Unmarshal(d.seg); err != nil {
			t.Fatal(err)
		}
		if hdr.Flags&(wire.TCPSyn|wire.TCPAck) != wire.TCPSyn|wire.TCPAck {
			t.Fatalf("expected SYN|ACK, got flags %#x", hdr.Flags)
		}
	}
	// The handshakes still complete.
	n.step()
	if len(n.b.accepted) != 3 {
		t.Fatalf("accepted %d connections, want 3", len(n.b.accepted))
	}
}

// TestBatchedSynAdmissionAbortedBeforeFlush: an admitted SYN whose
// connection dies within the same batch (RST) must not emit a SYN-ACK at
// Flush.
func TestBatchedSynAdmissionAbortedBeforeFlush(t *testing.T) {
	n := newTestNet(t, nil)
	if _, err := n.b.stack.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	c, err := n.a.stack.Connect(n.b.ip, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	syn := n.queue
	n.queue = nil
	// The client gives up before the SYN arrives: RST follows the SYN
	// into the same delivery batch.
	c.Abort()
	rst := n.queue
	n.queue = nil
	for _, d := range append(syn, rst...) {
		buf := d.to.pool.Alloc()
		buf.SetData(d.seg)
		d.to.stack.Input(d.src, d.dst, buf.Bytes(), buf)
		buf.Unref()
	}
	n.b.stack.Flush()
	if len(n.queue) != 0 {
		t.Fatalf("Flush emitted %d frames for a dead embryonic connection, want 0", len(n.queue))
	}
	if got := n.b.stack.ConnCount(); got != 0 {
		t.Fatalf("server holds %d connections, want 0", got)
	}
}
