package tcp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ix/internal/mem"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// TestRetransmitArenaSafety drives the zero-copy ownership contract
// under loss: segment payloads are views into a mem.TxArena, ACKs are
// withheld so the retransmission queue keeps referencing them, and the
// test asserts (a) the stack reports zero released bytes while any
// segment is unacknowledged — so an ACK-driven arena cannot reclaim a
// referenced chunk — and (b) every retransmitted segment carries bytes
// identical to its original transmission — so nothing mutated or reused
// the arena region in the meantime. When ACKs resume, the released
// count reaches exactly the bytes sent and the arena drains back to the
// pool.
func TestRetransmitArenaSafety(t *testing.T) {
	n := newTestNet(t, nil)

	pool := mem.NewTxChunkPool(mem.NewRegion(4), 0)
	var arena mem.TxArena
	arena.Init(pool)

	// Record first-transmission payloads per sequence number and compare
	// retransmissions against them.
	firstTx := map[uint32][]byte{}
	rexmits := 0
	dropAcks := false
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool {
		if from == n.a && len(payload) > 0 {
			if orig, seen := firstTx[hdr.Seq]; seen {
				rexmits++
				if !bytes.Equal(orig, payload) {
					t.Errorf("retransmission of seq %d mutated: first %q, retransmit %q",
						hdr.Seq, orig, payload)
				}
			} else {
				firstTx[hdr.Seq] = append([]byte(nil), payload...)
			}
		}
		// Withhold b's pure ACKs while dropAcks is set, so a's segments
		// stay referenced by its retransmission queue.
		return dropAcks && from == n.b && len(payload) == 0 && hdr.Flags&wire.TCPAck != 0
	}

	c, _ := n.open(t, 80)

	// Releases observed through the sent event condition drive the arena,
	// exactly as libix does.
	n.a.onRelease = func(conn *Conn, released int) { arena.Release(released) }

	dropAcks = true
	totalSent := 0
	for i := 0; i < 8; i++ {
		msg := bytes.Repeat([]byte{byte('a' + i)}, 700)
		copy(msg, fmt.Sprintf("msg-%d|", i))
		b := msg
		for len(b) > 0 {
			v := arena.Append(b)
			if len(v) == 0 {
				t.Fatal("arena exhausted")
			}
			if got := c.Send(v); got != len(v) {
				t.Fatalf("window closed early: accepted %d of %d", got, len(v))
			}
			totalSent += len(v)
			b = b[len(v):]
		}
	}
	n.step()

	if got := n.a.released[c]; got != 0 {
		t.Fatalf("released %d bytes while ACKs withheld, want 0", got)
	}
	if pool.InUse() == 0 {
		t.Fatal("arena holds no chunks despite unacked segments")
	}
	heldChunks := pool.InUse()

	// Drive several RTO rounds: every retransmission must carry the
	// original bytes, and no chunk may come back to the pool.
	for round := 0; round < 3; round++ {
		n.advance(5 * time.Millisecond)
		if pool.InUse() != heldChunks {
			t.Fatalf("chunk count changed under retransmission: %d -> %d",
				heldChunks, pool.InUse())
		}
	}
	if rexmits == 0 {
		t.Fatal("loss injection produced no retransmissions")
	}
	if got := n.a.released[c]; got != 0 {
		t.Fatalf("released %d bytes during retransmission, want 0", got)
	}

	// ACKs resume: the cumulative ACK trims the queue, the sent event's
	// release count reclaims the arena, chunks return to the pool.
	dropAcks = false
	n.advance(20 * time.Millisecond)
	for i := 0; i < 10 && n.a.released[c] < totalSent; i++ {
		n.advance(5 * time.Millisecond)
	}
	if got := n.a.released[c]; got != totalSent {
		t.Fatalf("released %d bytes after ACKs resumed, want %d", got, totalSent)
	}
	if got := n.a.sent[c]; got < totalSent {
		t.Fatalf("acked %d bytes, want >= %d", got, totalSent)
	}
	if pool.InUse() != 0 || arena.Live() != 0 {
		t.Fatalf("arena not drained: InUse=%d live=%d", pool.InUse(), arena.Live())
	}
}

// TestRetransmitArenaSafetyUnderBurstLoss is the data-loss twin of
// TestRetransmitArenaSafety: instead of withholding ACKs, the network
// eats every data segment (first transmissions AND retransmissions)
// while the storm flag is set, driving repeated RTOs with exponential
// backoff — the fault-injection layer's burst-loss regime. Throughout
// the storm the tx arena must stay immutable and unreclaimed (released
// stays 0, chunk count constant, every retransmission byte-identical);
// when the loss clears, NewReno partial-ACK recovery drains the holes,
// the release count reaches exactly the bytes sent, and the arena
// returns to the pool.
func TestRetransmitArenaSafetyUnderBurstLoss(t *testing.T) {
	n := newTestNet(t, nil)

	pool := mem.NewTxChunkPool(mem.NewRegion(4), 0)
	var arena mem.TxArena
	arena.Init(pool)

	firstTx := map[uint32][]byte{}
	rexmits := 0
	storm := false
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool {
		if from == n.a && len(payload) > 0 {
			if orig, seen := firstTx[hdr.Seq]; seen {
				rexmits++
				if !bytes.Equal(orig, payload) {
					t.Errorf("retransmission of seq %d mutated: first %q, retransmit %q",
						hdr.Seq, orig, payload)
				}
			} else {
				firstTx[hdr.Seq] = append([]byte(nil), payload...)
			}
			return storm // the storm eats all data, even retransmissions
		}
		return false
	}

	c, _ := n.open(t, 80)
	n.a.onRelease = func(conn *Conn, released int) { arena.Release(released) }

	storm = true
	totalSent := 0
	for i := 0; i < 6; i++ {
		msg := bytes.Repeat([]byte{byte('A' + i)}, 900)
		copy(msg, fmt.Sprintf("burst-%d|", i))
		b := msg
		for len(b) > 0 {
			v := arena.Append(b)
			if len(v) == 0 {
				t.Fatal("arena exhausted")
			}
			if got := c.Send(v); got != len(v) {
				t.Fatalf("window closed early: accepted %d of %d", got, len(v))
			}
			totalSent += len(v)
			b = b[len(v):]
		}
	}
	n.step()
	if pool.InUse() == 0 {
		t.Fatal("arena holds no chunks despite unacked segments")
	}
	heldChunks := pool.InUse()

	// Several RTO rounds with everything lost: backoff grows, bytes stay.
	for round := 0; round < 4; round++ {
		n.advance(5 * time.Millisecond)
		if got := n.a.released[c]; got != 0 {
			t.Fatalf("released %d bytes mid-storm, want 0", got)
		}
		if pool.InUse() != heldChunks {
			t.Fatalf("chunk count changed mid-storm: %d -> %d", heldChunks, pool.InUse())
		}
	}
	if rexmits == 0 {
		t.Fatal("storm produced no retransmissions")
	}

	// Loss clears: RTO-driven head retransmit + partial-ACK hole
	// retransmits recover the whole burst; the arena drains.
	storm = false
	for i := 0; i < 20 && n.a.released[c] < totalSent; i++ {
		n.advance(10 * time.Millisecond)
	}
	if got := n.a.released[c]; got != totalSent {
		t.Fatalf("released %d bytes after storm cleared, want %d", got, totalSent)
	}
	if pool.InUse() != 0 || arena.Live() != 0 {
		t.Fatalf("arena not drained: InUse=%d live=%d", pool.InUse(), arena.Live())
	}
}

// TestReleasedLagsPartialAck: a cumulative ACK covering only part of a
// segment releases nothing — the whole segment stays referenced until
// fully acknowledged (release granularity is the segment, the unit the
// retransmission queue holds).
func TestReleasedLagsPartialAck(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)

	// One 1000-byte segment from a; craft a partial ACK by hand.
	base := c.sndUna
	msg := bytes.Repeat([]byte{0x5a}, 1000)
	if got := c.Send(msg); got != len(msg) {
		t.Fatalf("accepted %d", got)
	}
	// Deliver to b but suppress b's responses so we control the ACK.
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool {
		return from == n.b
	}
	n.step()
	if string(n.b.recvd[s][:4]) != "\x5a\x5a\x5a\x5a" {
		t.Fatal("server did not receive the segment")
	}
	n.drop = nil

	// Partial ACK: 400 of 1000 bytes.
	partial := wire.TCPHeader{
		SrcPort: s.Key().SrcPort, DstPort: s.Key().DstPort,
		Seq: s.sndNxt, Ack: base + 400, Flags: wire.TCPAck,
		Window: 0xffff, WScale: -1,
	}
	seg := make([]byte, partial.Len())
	partial.Marshal(seg)
	wire.SetTCPChecksum(n.b.ip, n.a.ip, seg)
	buf := n.a.pool.Alloc()
	buf.SetData(seg)
	n.a.stack.Input(n.b.ip, n.a.ip, buf.Bytes(), buf)
	buf.Unref()

	if n.a.sent[c] != 400 {
		t.Fatalf("acked = %d, want 400", n.a.sent[c])
	}
	if n.a.released[c] != 0 {
		t.Fatalf("released = %d for a partially acked segment, want 0", n.a.released[c])
	}

	// Full ACK releases the whole segment.
	full := partial
	full.Ack = base + 1000
	seg2 := make([]byte, full.Len())
	full.Marshal(seg2)
	wire.SetTCPChecksum(n.b.ip, n.a.ip, seg2)
	buf2 := n.a.pool.Alloc()
	buf2.SetData(seg2)
	n.a.stack.Input(n.b.ip, n.a.ip, buf2.Bytes(), buf2)
	buf2.Unref()

	if n.a.released[c] != 1000 {
		t.Fatalf("released = %d after full ACK, want 1000", n.a.released[c])
	}
}

// quietEvents is an allocation-free Events sink for the steady-state
// allocation test (the generic test harness records into maps and
// builds segments with make, which would drown the measurement).
type quietEvents struct {
	released int
	acked    int
}

func (q *quietEvents) Accepted(c *Conn)                         {}
func (q *quietEvents) Connected(c *Conn, ok bool)               {}
func (q *quietEvents) Recv(c *Conn, buf *mem.Mbuf, data []byte) {}
func (q *quietEvents) Sent(c *Conn, acked, released int)        { q.acked += acked; q.released += released }
func (q *quietEvents) RemoteClosed(c *Conn)                     {}
func (q *quietEvents) Dead(c *Conn, reason Reason)              {}

// TestZeroAllocSteadySend: the per-message transmit cycle — Sendv with
// an arena-backed view, segment tracking, cumulative ACK, retransQ trim,
// release report — must not allocate once warm (inline segment
// fragments, ring-reset retransmission queue, pooled RTO timers, reused
// scatter-gather scratch).
func TestZeroAllocSteadySend(t *testing.T) {
	ev := &quietEvents{}
	var now int64
	wheel := timerwheel.New(timerwheel.DefaultTick, 0)
	s := NewStack(Config{
		LocalIP: wire.Addr4(10, 0, 0, 1),
		Now:     func() int64 { return now },
		Wheel:   wheel,
		Output:  func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {},
		Events:  ev,
		Seed:    7,
	})
	c, err := s.Connect(wire.Addr4(10, 0, 0, 2), 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-establish: the three-way handshake is not under test.
	c.state = StateEstablished
	c.sndUna++ // the SYN is acknowledged
	c.sndNxt = c.sndUna
	c.sndWnd = 1 << 20
	c.cancelRTO(c.stack())

	pool := mem.NewTxChunkPool(mem.NewRegion(4), 0)
	var arena mem.TxArena
	arena.Init(pool)

	msg := make([]byte, 64)
	ackBuf := make([]byte, 64)
	srcIP, dstIP := wire.Addr4(10, 0, 0, 2), wire.Addr4(10, 0, 0, 1)
	cycle := func() {
		v := arena.Append(msg)
		if got := c.Send(v); got != len(v) {
			t.Fatalf("window closed: %d", got)
		}
		now += int64(50 * time.Microsecond)
		// Peer's cumulative ACK for everything outstanding.
		hdr := wire.TCPHeader{
			SrcPort: c.key.DstPort, DstPort: c.key.SrcPort,
			Seq: c.rcvNxt, Ack: c.sndNxt, Flags: wire.TCPAck,
			Window: 0xffff, WScale: -1,
		}
		seg := ackBuf[:hdr.Len()]
		hdr.Marshal(seg)
		wire.SetTCPChecksum(srcIP, dstIP, seg)
		s.Input(srcIP, dstIP, seg, nil)
		arena.Release(ev.released)
		ev.released = 0
		// The dataplane's quiescence query skims the timer heap's dead
		// entries, as cycleEnd does every cycle.
		wheel.NextDeadline()
	}
	cycle() // warm pools, scratch, ring backings
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state send cycle allocates %.2f per op, want 0", allocs)
	}
	if c.retransLen(c.stack()) != 0 || arena.Live() != 0 || pool.InUse() != 0 {
		t.Fatalf("cycle left state: retransQ=%d live=%d chunks=%d",
			c.retransLen(c.stack()), arena.Live(), pool.InUse())
	}
}

// TestRetransQBoundedUnderPipelining: a connection that always keeps a
// segment in flight never hits the queue's empty reset; the trim-time
// compaction must keep the backing bounded by the live window, not by
// connection lifetime.
func TestRetransQBoundedUnderPipelining(t *testing.T) {
	ev := &quietEvents{}
	var now int64
	wheel := timerwheel.New(timerwheel.DefaultTick, 0)
	s := NewStack(Config{
		LocalIP: wire.Addr4(10, 0, 0, 1),
		Now:     func() int64 { return now },
		Wheel:   wheel,
		Output:  func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {},
		Events:  ev,
		Seed:    7,
	})
	c, err := s.Connect(wire.Addr4(10, 0, 0, 2), 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.state = StateEstablished
	c.sndUna++ // the SYN is acknowledged
	c.sndNxt = c.sndUna
	c.sndWnd = 1 << 20
	c.cancelRTO(c.stack())
	msg := make([]byte, 64)
	ackBuf := make([]byte, 64)
	srcIP, dstIP := wire.Addr4(10, 0, 0, 2), wire.Addr4(10, 0, 0, 1)
	for i := 0; i < 2000; i++ {
		c.Send(msg)
		now += int64(10 * time.Microsecond)
		// Ack all but the newest segment: the queue never drains.
		hdr := wire.TCPHeader{
			SrcPort: c.key.DstPort, DstPort: c.key.SrcPort,
			Seq: c.rcvNxt, Ack: c.sndNxt - 64, Flags: wire.TCPAck,
			Window: 0xffff, WScale: -1,
		}
		seg := ackBuf[:hdr.Len()]
		hdr.Marshal(seg)
		wire.SetTCPChecksum(srcIP, dstIP, seg)
		s.Input(srcIP, dstIP, seg, nil)
		if c.retransLen(c.stack()) != 1 {
			t.Fatalf("iteration %d: %d segments outstanding, want 1", i, c.retransLen(c.stack()))
		}
	}
	if len(c.flight(c.stack()).q) > 96 {
		t.Fatalf("retransQ backing holds %d entries for 1 live segment; dead prefix not compacted", len(c.flight(c.stack()).q))
	}
}
