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

// txTestConn builds a stack with a hand-established connection, the
// standard fixture of the zero-copy tests.
func txTestConn(t *testing.T, out Output) (*Stack, *Conn, *quietEvents, *int64) {
	t.Helper()
	ev := &quietEvents{}
	var now int64
	wheel := timerwheel.New(timerwheel.DefaultTick, 0)
	if out == nil {
		out = func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {}
	}
	s := NewStack(Config{
		LocalIP: wire.Addr4(10, 0, 0, 1),
		Now:     func() int64 { return now },
		Wheel:   wheel,
		Output:  out,
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
	c.settle(c.stack()) // returns the handshake's flight, as Input would
	return s, c, ev, &now
}

// ackTo delivers a cumulative ACK for everything up to ack.
func ackTo(s *Stack, c *Conn, ack uint32) {
	var buf [64]byte
	hdr := wire.TCPHeader{
		SrcPort: c.key.DstPort, DstPort: c.key.SrcPort,
		Seq: c.rcvNxt, Ack: ack, Flags: wire.TCPAck,
		Window: 0xffff, WScale: -1,
	}
	seg := buf[:hdr.Len()]
	hdr.Marshal(seg)
	srcIP, dstIP := wire.Addr4(10, 0, 0, 2), wire.Addr4(10, 0, 0, 1)
	wire.SetTCPChecksum(srcIP, dstIP, seg)
	s.Input(srcIP, dstIP, seg, nil)
}

// TestTxStateInlineSteadyState: request-response traffic (one segment in
// flight at a time) must stay on the flight's inline array — no spill —
// and an idle connection must hold no flight at all.
func TestTxStateInlineSteadyState(t *testing.T) {
	s, c, _, _ := txTestConn(t, nil)
	if c.fl != 0 {
		t.Fatal("fresh connection holds a flight before any transmit")
	}
	msg := make([]byte, 64)
	for i := 0; i < 100; i++ {
		c.Send(msg)
		if c.fl == 0 {
			t.Fatal("in-flight segment without a flight")
		}
		if got := cap(c.flight(c.stack()).q); got != retransInline {
			t.Fatalf("iteration %d: steady-state send spilled (cap=%d, want inline %d)",
				i, got, retransInline)
		}
		if &c.flight(c.stack()).q[0] != &c.flight(c.stack()).inl[0] {
			t.Fatalf("iteration %d: queue no longer aliases the inline array", i)
		}
		ackTo(s, c, c.sndNxt)
		if c.fl != 0 {
			t.Fatalf("iteration %d: drained queue kept its flight", i)
		}
	}
	if len(s.flightFree) != 1 {
		t.Fatalf("pool holds %d states after one-at-a-time traffic, want 1", len(s.flightFree))
	}
}

// TestTxStateSpillReleasedOnDrain is the red/green regression for the
// retained-spill leak: a burst that grows the queue past the inline
// capacity used to pin that backing for the connection's lifetime. The
// footprint must return to the idle baseline once the burst drains.
func TestTxStateSpillReleasedOnDrain(t *testing.T) {
	s, c, _, _ := txTestConn(t, nil)

	// Idle baseline: one send/ack cycle, fully drained.
	msg := make([]byte, 64)
	c.Send(msg)
	ackTo(s, c, c.sndNxt)
	base := s.Footprint()
	if c.fl != 0 {
		t.Fatal("baseline connection still holds a flight")
	}

	// Burst: pipeline well past the inline capacity without an ACK.
	const burst = 40
	for i := 0; i < burst; i++ {
		c.Send(msg)
	}
	if c.fl == 0 || cap(c.flight(c.stack()).q) <= retransInline {
		t.Fatalf("burst of %d segments did not spill (cap=%v)", burst, c.fl != 0)
	}
	spilled := s.Footprint()
	if spilled.Bytes <= base.Bytes {
		t.Fatal("footprint does not see the spilled backing")
	}

	// Drain: cumulative ACK for the whole burst.
	ackTo(s, c, c.sndNxt)
	if c.fl != 0 {
		t.Fatal("drained queue kept its flight (spill backing retained)")
	}
	if got := s.Footprint(); got.Bytes != base.Bytes {
		t.Fatalf("footprint after recovery = %d bytes, want idle baseline %d (leak: %+d)",
			got.Bytes, base.Bytes, got.Bytes-base.Bytes)
	}
	// The pooled state must come back clean: empty, and no stale payload
	// reference anywhere in the backing it kept or in the inline array.
	st := s.flights[s.getFlight()-1]
	if len(st.q) != 0 || (cap(st.q) != retransInline && !keepSpill(st.q)) || st.head != 0 {
		t.Fatalf("recycled flight not reset: len=%d cap=%d head=%d", len(st.q), cap(st.q), st.head)
	}
	for i, ts := range st.q[:cap(st.q)] {
		if ts.frag0 != nil || ts.frag1 != nil || ts.extra != nil {
			t.Fatalf("recycled flight backing[%d] still references payload", i)
		}
	}
	for i := range st.inl {
		if st.inl[i].frag0 != nil || st.inl[i].extra != nil {
			t.Fatalf("recycled flight inline[%d] still references payload", i)
		}
	}
}

// TestTxStateSpillReusedAcrossFlights: a bulk sender's flights of 40
// segments (near a 64 KiB window) reuse the pooled spill instead of
// regrowing it per message, so steady bulk transmit does not allocate;
// a backing grown past maxPooledSpill is not kept.
func TestTxStateSpillReusedAcrossFlights(t *testing.T) {
	s, c, _, _ := txTestConn(t, nil)
	c.cwnd = 1 << 20 // past slow start: whole messages leave at once
	msg := [][]byte{make([]byte, 40*wire.MSS)}
	srcIP, dstIP := wire.Addr4(10, 0, 0, 2), wire.Addr4(10, 0, 0, 1)
	ack := make([]byte, wire.TCPHdrLen) // reused: ackTo's buffer escapes
	flight := func() {
		if got := c.Sendv(msg, nil); got != len(msg[0]) {
			t.Fatalf("window accepted %d of %d bytes", got, len(msg[0]))
		}
		hdr := wire.TCPHeader{
			SrcPort: c.key.DstPort, DstPort: c.key.SrcPort,
			Seq: c.rcvNxt, Ack: c.sndNxt, Flags: wire.TCPAck,
			Window: 0xffff, WScale: -1,
		}
		hdr.Marshal(ack)
		wire.SetTCPChecksum(srcIP, dstIP, ack)
		s.Input(srcIP, dstIP, ack, nil)
		s.cfg.Wheel.NextDeadline() // the OS models' quiescence query trims the wheel's heap
	}
	flight() // grows the one pooled state's spill
	if allocs := testing.AllocsPerRun(20, flight); allocs != 0 {
		t.Fatalf("a 40-segment flight allocates %.1f times once the spill is pooled, want 0", allocs)
	}
	if len(s.flightFree) != 1 || cap(s.flights[s.flightFree[0]-1].q) < maxPooledSpill {
		t.Fatalf("pool holds %d states (first cap %d), want 1 keeping the spill grown for %d segments",
			len(s.flightFree), cap(s.flights[s.flightFree[0]-1].q), maxPooledSpill)
	}

	// A deeper flight outgrows the bound: its backing is dropped.
	deep := [][]byte{make([]byte, 2*maxPooledSpill*wire.MSS)}
	c.sndWnd = 1 << 20
	if got := c.Sendv(deep, nil); got != len(deep[0]) {
		t.Fatalf("window accepted %d of %d bytes", got, len(deep[0]))
	}
	ackTo(s, c, c.sndNxt)
	if got := cap(s.flights[s.flightFree[0]-1].q); got != retransInline {
		t.Fatalf("pooled state kept a %d-segment backing, want the inline array", got)
	}
}

// TestTxStateRTOStormOrdering drives the inline→spill→release transition
// under burst loss with an RTO storm: a pipelined window is never ACKed,
// the RTO fires repeatedly (backoff), and recovery retransmits must
// carry byte-identical payloads in sequence order — the zero-copy
// references survive the spill, the trim-time compaction and the pooled
// release. Finally the cumulative ACK drains everything and the arena
// reclaims in full.
func TestTxStateRTOStormOrdering(t *testing.T) {
	type emission struct {
		seq  uint32
		data []byte
	}
	var sent []emission
	out := func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {
		var buf []byte
		for _, p := range payload {
			buf = append(buf, p...)
		}
		sent = append(sent, emission{seq: hdr.Seq, data: buf})
	}
	s, c, ev, now := txTestConn(t, out)

	pool := mem.NewTxChunkPool(mem.NewRegion(4), 0)
	var arena mem.TxArena
	arena.Init(pool)

	// Distinct payload per segment so misordered retransmits are visible.
	const segs = 24
	first := map[uint32][]byte{}
	for i := 0; i < segs; i++ {
		msg := bytes.Repeat([]byte{byte(i + 1)}, 64)
		v := arena.Append(msg)
		if got := c.Send(v); got != len(v) {
			t.Fatalf("window closed at segment %d", i)
		}
		e := sent[len(sent)-1]
		first[e.seq] = append([]byte(nil), e.data...)
	}
	if cap(c.flight(c.stack()).q) <= retransInline {
		t.Fatal("pipelined burst did not spill")
	}

	// Storm: no ACKs arrive; fire the RTO through several backoff rounds.
	// Each firing retransmits the head segment (go-back-N recovery driven
	// by partial ACKs would follow; the storm exercises the head resend).
	firstLen := len(sent)
	for round := 0; round < 4; round++ {
		next, ok := s.cfg.Wheel.NextDeadline()
		if !ok {
			t.Fatalf("round %d: no RTO armed during storm", round)
		}
		*now = next
		s.cfg.Wheel.Advance(next)
		if c.state == StateClosed {
			t.Fatalf("round %d: storm killed the connection (MaxRexmits too low for test)", round)
		}
	}
	if len(sent) == firstLen {
		t.Fatal("RTO storm retransmitted nothing")
	}
	for _, e := range sent[firstLen:] {
		want, ok := first[e.seq]
		if !ok {
			t.Fatalf("retransmit of never-sent seq %d", e.seq)
		}
		if !bytes.Equal(want, e.data) {
			t.Fatalf("retransmit of seq %d carries different bytes (arena immutability violated)", e.seq)
		}
	}

	// Partial ACKs walk the recovery forward one hole at a time; each
	// must resend the next hole, in order.
	resendStart := len(sent)
	una := c.sndUna
	for i := 0; i < segs-1; i++ {
		ackTo(s, c, una+uint32((i+1)*64))
	}
	var prev uint32
	for i, e := range sent[resendStart:] {
		if i > 0 && !seqLT(prev, e.seq) {
			t.Fatalf("recovery resent out of order: seq %d after %d", e.seq, prev)
		}
		prev = e.seq
	}

	// Final cumulative ACK: queue drains, state releases, arena reclaims.
	ackTo(s, c, c.sndNxt)
	if c.fl != 0 {
		t.Fatal("queue drained but flight retained")
	}
	arena.Release(ev.released)
	if arena.Live() != 0 || pool.InUse() != 0 {
		t.Fatalf("arena not reclaimed after drain: live=%d chunks=%d", arena.Live(), pool.InUse())
	}
	fp := s.Footprint()
	idle := fmt.Sprintf("%d conns / %d bytes", fp.Conns, fp.Bytes)
	if fp.Conns != 1 {
		t.Fatalf("unexpected population: %s", idle)
	}
}

// TestTxStatePooledClean: the flight a connection borrows starts clean.
// A recovery that drains the queue releases the state still marked in
// recovery — the ACK that ends it is the one that empties the queue —
// and a connection aborted with a timed segment in flight and its RTO
// re-armed releases it with the sample pending and the segment queued,
// so putFlight must reset the timing and recovery scalars and the timer
// slots, and drop the segment's payload references, before the next
// borrower sees them. A lost SYN leaves a timeout count behind the
// handshake; it stays in the PCB, so the handshake's flight goes back
// at once and the first data's ACK resets the count.
func TestTxStatePooledClean(t *testing.T) {
	n := newTestNet(t, nil)
	c, s := n.open(t, 80)
	c.Send([]byte("warm"))
	n.step()

	// First transmissions of segments 0 and 2 of six are lost: the dup
	// ACKs of 1, 3, 4 and 5 fast-retransmit 0, whose ACK is partial, so
	// recovery resends 2 and the next ACK drains the queue.
	const segs, segLen = 6, 1000
	base := c.sndNxt
	seen := map[uint32]bool{}
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool {
		if from != n.a || len(payload) == 0 || seen[hdr.Seq] {
			return false
		}
		seen[hdr.Seq] = true
		idx := int(hdr.Seq-base) / segLen
		return idx == 0 || idx == 2
	}
	chunk := make([]byte, segLen)
	for i := 0; i < segs; i++ {
		c.Send(chunk)
	}
	fl := c.flight(c.stack())
	rexmits := n.a.stack.Retransmits
	n.step()
	if got := n.a.stack.FastRetransmits; got != 1 {
		t.Fatalf("fast retransmits = %d, want 1", got)
	}
	if got := n.a.stack.Retransmits - rexmits; got != 1 {
		t.Fatalf("partial-ACK retransmits = %d, want 1", got)
	}
	if got := len(n.b.recvd[s]); got != 4+segs*segLen {
		t.Fatalf("receiver got %d bytes, want %d", got, 4+segs*segLen)
	}
	if c.fl != 0 {
		t.Fatal("a drained queue kept its retransmission state")
	}
	checkClean := func(when string, want *flight) {
		t.Helper()
		idx := n.a.stack.getFlight()
		got := n.a.stack.flights[idx-1]
		if got != want {
			t.Fatalf("%s: the pool handed out another state", when)
		}
		if got.rttPending || got.inRecovery || got.dupAcks != 0 || got.rttSeq != 0 ||
			got.rttStart != 0 || got.recoverSeq != 0 {
			t.Fatalf("%s: pooled state not reset: rttPending=%v inRecovery=%v dupAcks=%d rttSeq=%d rttStart=%d recoverSeq=%d",
				when, got.rttPending, got.inRecovery, got.dupAcks, got.rttSeq, got.rttStart, got.recoverSeq)
		}
		if got.timer != nil || got.daTimer != nil || got.reasm != nil {
			t.Fatalf("%s: pooled flight not reset: timer=%v daTimer=%v reasm=%v",
				when, got.timer != nil, got.daTimer != nil, got.reasm != nil)
		}
		for i, ts := range append(got.q[:cap(got.q)], got.inl[:]...) {
			if ts.frag0 != nil || ts.frag1 != nil || ts.extra != nil {
				t.Fatalf("%s: pooled flight entry %d still references payload", when, i)
			}
		}
		n.a.stack.putFlight(idx)
	}
	checkClean("after recovery", fl)

	// The next send borrows the same object and times its segment; the
	// RTO fires into the loss and re-arms, and an abort releases the
	// state with the sample pending and the RTO armed.
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool { return true }
	c.Send([]byte("timed"))
	if c.flight(c.stack()) != fl || !fl.rttPending {
		t.Fatal("the next send did not borrow the pooled state and time its segment")
	}
	n.advance(time.Duration(c.rto) + 2*timerwheel.DefaultTick)
	if c.rexmitCount == 0 || fl.timer == nil {
		t.Fatal("the RTO did not fire into the loss and re-arm")
	}
	c.Abort()
	checkClean("after abort", fl)

	// A lost SYN: the RTO fires once and the handshake completes with the
	// retransmission. The flight goes back at once: the timeout count the
	// handshake leaves behind lives in the PCB, which the first data's
	// ACK resets, and the data borrows a clean flight and returns it.
	n = newTestNet(t, nil)
	if _, err := n.b.stack.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	lost := false
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool {
		if from == n.a && hdr.Flags&wire.TCPSyn != 0 && !lost {
			lost = true
			return true
		}
		return false
	}
	c, err := n.a.stack.Connect(n.b.ip, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.step()
	for i := 0; i < 8 && !n.a.connected[c]; i++ {
		n.advance(time.Millisecond)
	}
	if !lost || !n.a.connected[c] {
		t.Fatalf("handshake after a lost SYN: lost=%v connected=%v", lost, n.a.connected[c])
	}
	if c.rexmitCount != 1 || c.fl != 0 {
		t.Fatalf("after a lost SYN: rexmitCount=%d, flight kept %v; want 1 and no flight", c.rexmitCount, c.fl != 0)
	}
	fl = n.a.stack.flights[n.a.stack.flightFree[len(n.a.stack.flightFree)-1]-1]
	c.Send([]byte("data"))
	if c.flight(c.stack()) != fl {
		t.Fatal("the first data did not borrow the handshake's pooled flight")
	}
	n.step()
	if c.fl != 0 || c.rexmitCount != 0 {
		t.Fatalf("after the first data drained: flight kept %v, rexmitCount=%d", c.fl != 0, c.rexmitCount)
	}
	checkClean("after a lost SYN", fl)
}

// TestSynRetransmitsKeepISS: a connection keeps no initial send sequence
// apart from sndUna, which holds it until the handshake completes. With
// the first SYN and the first SYN-ACK lost, every SYN carries the
// client's ISS and every SYN-ACK — the one owed to Flush and its
// retransmission — the server's, and both handshakes complete.
func TestSynRetransmitsKeepISS(t *testing.T) {
	n := newTestNet(t, nil)
	if _, err := n.b.stack.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	type seg struct {
		flags    uint8
		seq, ack uint32
	}
	sent := map[*side][]seg{}
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool {
		sent[from] = append(sent[from], seg{hdr.Flags, hdr.Seq, hdr.Ack})
		return hdr.Flags&wire.TCPSyn != 0 && len(sent[from]) == 1
	}
	c, err := n.a.stack.Connect(n.b.ip, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.step()
	for i := 0; i < 8 && len(n.b.accepted) == 0; i++ {
		n.advance(time.Millisecond)
	}
	if !n.a.connected[c] || len(n.b.accepted) != 1 {
		t.Fatalf("handshake did not complete: connected=%v accepted=%d", n.a.connected[c], len(n.b.accepted))
	}
	// The first of each was lost: its sequence is the sender's ISS.
	issA, issB := sent[n.a][0].seq, sent[n.b][0].seq
	var syns, synAcks int
	for _, sg := range sent[n.a] {
		if sg.flags&wire.TCPSyn != 0 {
			syns++
			if sg.seq != issA {
				t.Fatalf("SYN %d carries seq %d, want the ISS %d", syns, sg.seq, issA)
			}
		}
	}
	for _, sg := range sent[n.b] {
		if sg.flags&wire.TCPSyn != 0 {
			synAcks++
			if sg.seq != issB || sg.ack != issA+1 {
				t.Fatalf("SYN-ACK %d carries seq/ack %d/%d, want %d/%d", synAcks, sg.seq, sg.ack, issB, issA+1)
			}
		}
	}
	if syns < 2 || synAcks < 2 {
		t.Fatalf("%d SYNs and %d SYN-ACKs sent, want a retransmission of each", syns, synAcks)
	}
	if c.sndUna != issA+1 || c.sndNxt != issA+1 {
		t.Fatalf("client sndUna/sndNxt = %d/%d after the handshake, want %d", c.sndUna, c.sndNxt, issA+1)
	}
	if sc := n.b.accepted[0]; sc.sndUna != issB+1 || sc.sndNxt != issB+1 {
		t.Fatalf("server sndUna/sndNxt = %d/%d after the handshake, want %d", sc.sndUna, sc.sndNxt, issB+1)
	}
}
