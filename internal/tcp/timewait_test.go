package tcp

import (
	"testing"
	"time"

	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// timeWaitFixture closes a connection from a's side so that a's end sits
// in TIME_WAIT and b's end is gone, and returns a's end, b's end (its
// sequence state is what a retransmitting peer would send) and the 2MSL
// deadline.
func timeWaitFixture(t *testing.T, tw time.Duration) (n *testNet, c, s *Conn, deadline int64) {
	t.Helper()
	n = newTestNet(t, func(cfg *Config) { cfg.TimeWait = tw })
	c, s = n.open(t, 80)
	c.Close()
	n.step()
	s.Close()
	n.step()
	if c.State() != StateTimeWait {
		t.Fatalf("client state = %v, want TimeWait", c.State())
	}
	if s.State() != StateClosed {
		t.Fatalf("server state = %v, want Closed", s.State())
	}
	return n, c, s, n.now + int64(tw)
}

// inject hands one segment from s's address to c's stack and discards
// whatever c answers: the peer's end is gone, so a reply reaching it
// would only draw a RST and end TIME_WAIT early.
func inject(n *testNet, c, s *Conn, seq, ack uint32, flags uint8, payload []byte) {
	hdr := wire.TCPHeader{
		SrcPort: s.key.SrcPort, DstPort: c.key.SrcPort,
		Seq: seq, Ack: ack, Flags: flags, Window: 65535, WScale: -1,
	}
	seg := make([]byte, hdr.Len()+len(payload))
	hdr.Marshal(seg)
	copy(seg[hdr.Len():], payload)
	wire.SetTCPChecksum(n.b.ip, n.a.ip, seg)
	c.stack().Input(n.b.ip, n.a.ip, seg, nil)
	c.stack().Flush()
	n.queue = nil
}

// peerSegments sends c, in TIME_WAIT, what a confused or slow peer
// might: a retransmission of its FIN, a duplicate ACK, and a data
// segment far outside the receive window.
func peerSegments(t *testing.T, n *testNet, c, s *Conn) {
	t.Helper()
	fin := s.sndNxt - 1
	inject(n, c, s, fin, c.sndNxt, wire.TCPFin|wire.TCPAck, nil)
	inject(n, c, s, s.sndNxt, c.sndNxt, wire.TCPAck, nil)
	inject(n, c, s, c.rcvNxt+1<<20, c.sndNxt, wire.TCPAck|wire.TCPPsh, []byte("stray"))
	if c.State() != StateTimeWait {
		t.Fatalf("state after peer segments = %v, want TimeWait", c.State())
	}
	if f := c.flight(c.stack()); f == nil || f.timer == nil {
		t.Fatal("peer segments emptied the timer slot in TIME_WAIT")
	}
}

// TestTimeWaitTimerSurvivesSegments: TIME_WAIT's 2MSL timer shares the
// RTO's slot, so no segment processed in TIME_WAIT may arm or cancel the
// RTO. A retransmitted FIN, a duplicate ACK and an out-of-window segment
// arrive mid-TIME_WAIT; the timer still fires at the original deadline
// and destroys the connection.
func TestTimeWaitTimerSurvivesSegments(t *testing.T) {
	const tw = time.Millisecond
	n, c, s, deadline := timeWaitFixture(t, tw)
	n.advance(tw / 2)
	peerSegments(t, n, c, s)

	n.advance(time.Duration(deadline-n.now) - 2*timerwheel.DefaultTick)
	if c.State() != StateTimeWait {
		t.Fatalf("state %v before the 2MSL deadline", c.State())
	}
	n.advance(2 * timerwheel.DefaultTick)
	if r, dead := n.a.dead[c]; c.State() != StateClosed || !dead || r != ReasonClosed {
		t.Fatalf("at the 2MSL deadline: state %v, Dead reported %v (reason %v)", c.State(), dead, r)
	}
	if n.a.stack.ConnCount() != 0 {
		t.Fatalf("%d connections left after TIME_WAIT", n.a.stack.ConnCount())
	}
}

// TestTimeWaitTimerSurvivesMigrate: the same after the TIME_WAIT
// connection moves to another stack (elastic-thread rebalance): the slot
// transfers with its deadline, segments arriving on either side of the
// move leave it alone, and the destination destroys the connection at
// the original deadline. A connection with a delayed ACK and an RTO
// both pending carries its one flight across a move, and each timer in
// it fires at its original deadline on the destination.
func TestTimeWaitTimerSurvivesMigrate(t *testing.T) {
	const tw = time.Millisecond
	n, c, s, deadline := timeWaitFixture(t, tw)
	n.advance(tw / 4)
	peerSegments(t, n, c, s)

	dstSide := &side{
		name: "a2", ip: n.a.ip, net: n,
		connected: map[*Conn]bool{}, recvd: map[*Conn][]byte{}, sent: map[*Conn]int{},
		released: map[*Conn]int{}, dead: map[*Conn]Reason{}, eof: map[*Conn]bool{},
	}
	dstSide.wheel = timerwheel.New(timerwheel.DefaultTick, n.now)
	dst := NewStack(Config{
		LocalIP: n.a.ip,
		Now:     func() int64 { return n.now },
		Wheel:   dstSide.wheel,
		Output:  func(*Conn, *wire.TCPHeader, [][]byte) {},
		Events:  dstSide,
	})
	c = dst.Conn(n.a.stack.Migrate(c.ID(), dst))
	if n.a.stack.ConnCount() != 0 || dst.ConnCount() != 1 {
		t.Fatalf("migration counts: src=%d dst=%d", n.a.stack.ConnCount(), dst.ConnCount())
	}
	advance := func(d time.Duration) {
		n.advance(d)
		dstSide.wheel.Advance(n.now)
	}
	advance(tw / 4)
	peerSegments(t, n, c, s)

	advance(time.Duration(deadline-n.now) - 2*timerwheel.DefaultTick)
	if c.State() != StateTimeWait {
		t.Fatalf("state %v before the 2MSL deadline", c.State())
	}
	advance(2 * timerwheel.DefaultTick)
	if r, dead := dstSide.dead[c]; c.State() != StateClosed || !dead || r != ReasonClosed {
		t.Fatalf("at the 2MSL deadline: state %v, Dead reported %v (reason %v)", c.State(), dead, r)
	}
	if dst.ConnCount() != 0 {
		t.Fatalf("%d connections left after TIME_WAIT", dst.ConnCount())
	}

	t.Run("DelAckAndRTO", migrateBothTimers)
}

// migrateBothTimers moves a connection whose flight holds an RTO (its
// reply was lost) and a delayed ACK (for the request that arrived
// since), and checks that the flight and both deadlines survive.
func migrateBothTimers(t *testing.T) {
	const da = 100 * time.Microsecond
	n := newTestNet(t, func(cfg *Config) { cfg.DelAck = da })
	c, s := n.open(t, 80)
	n.drop = func(from *side, hdr *wire.TCPHeader, payload []byte) bool { return from == n.b }
	s.Send([]byte("reply"))
	rtoAt := n.now + int64(s.rto)
	n.step()
	n.drop = nil
	n.now += int64(da / 2)
	c.Send([]byte("request"))
	daAt := n.now + int64(da)
	n.step()
	f := s.flight(s.stack())
	if f == nil || f.timer == nil || f.daTimer == nil || s.retransLen(s.stack()) != 1 {
		t.Fatal("want a flight holding the reply, its RTO and the request's delayed ACK")
	}

	type emission struct {
		at      int64
		payload int
	}
	var sent []emission
	wheel := timerwheel.New(timerwheel.DefaultTick, n.now)
	dst := NewStack(Config{
		LocalIP: n.b.ip,
		Now:     func() int64 { return n.now },
		Wheel:   wheel,
		Output: func(_ *Conn, _ *wire.TCPHeader, payload [][]byte) {
			sent = append(sent, emission{n.now, len(flatten(payload))})
		},
		Events: n.b,
	})
	s = dst.Conn(n.b.stack.Migrate(s.ID(), dst))
	if s.flight(s.stack()) != f || f.timer == nil || f.daTimer == nil {
		t.Fatal("the flight or a timer in it did not survive the move")
	}
	if n.b.wheel.Len() != 0 || wheel.Len() != 2 {
		t.Fatalf("timers after the move: %d on the source wheel, %d on the destination, want 0 and 2",
			n.b.wheel.Len(), wheel.Len())
	}
	advanceTo := func(at int64) {
		n.now = at
		wheel.Advance(at)
		dst.Flush()
	}
	advanceTo(daAt - 2*int64(timerwheel.DefaultTick))
	if len(sent) != 0 {
		t.Fatalf("%d segments before the delayed-ACK deadline", len(sent))
	}
	advanceTo(daAt + 2*int64(timerwheel.DefaultTick))
	if len(sent) != 1 || sent[0].payload != 0 {
		t.Fatalf("at the delayed-ACK deadline: %+v, want one pure ACK", sent)
	}
	advanceTo(rtoAt - 2*int64(timerwheel.DefaultTick))
	if len(sent) != 1 {
		t.Fatalf("%d segments before the RTO deadline, want 1", len(sent))
	}
	advanceTo(rtoAt + 2*int64(timerwheel.DefaultTick))
	if len(sent) != 2 || sent[1].payload != len("reply") {
		t.Fatalf("at the RTO deadline: %+v, want the reply retransmitted", sent)
	}
	if s.flight(s.stack()) != f || f.timer == nil || s.rexmitCount != 1 {
		t.Fatal("after the RTO: want the flight kept, the RTO re-armed and one timeout counted")
	}
}
