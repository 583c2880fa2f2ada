package tcp

import (
	"testing"
	"time"

	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// TestFlightDelAck: a connection whose only pending work is a delayed
// ACK borrows a flight for its timer and returns it once the ACK has
// left. When the timeout fires, the flight is kept until the Flush that
// sends the ACK; when a reply carries the ACK first, the flight holds
// the reply and goes back once the reply's own ACK drains the queue.
func TestFlightDelAck(t *testing.T) {
	const da = 100 * time.Microsecond
	n := newTestNet(t, func(c *Config) { c.DelAck = da })
	c, s := n.open(t, 80)
	if c.fl != 0 || s.fl != 0 {
		t.Fatal("idle established connections hold a flight")
	}

	// The timeout sends the ACK.
	c.Send([]byte("x"))
	n.step()
	f := s.flight(s.stack())
	if f == nil || f.daTimer == nil || f.timer != nil || s.retransLen(s.stack()) != 0 {
		t.Fatal("a delayed ACK alone did not borrow a flight holding only its timer")
	}
	n.now += int64(2 * da)
	n.b.wheel.Advance(n.now)
	if s.flight(s.stack()) != f || f.daTimer != nil || !s.has(needAck) {
		t.Fatal("after the timeout: want the flight kept, its timer fired and the ACK owed to Flush")
	}
	out := n.b.stack.SegsOut
	n.b.stack.Flush()
	if n.b.stack.SegsOut != out+1 {
		t.Fatalf("Flush sent %d segments, want the one delayed ACK", n.b.stack.SegsOut-out)
	}
	free := n.b.stack.flightFree
	if s.fl != 0 || len(free) == 0 || n.b.stack.flights[free[len(free)-1]-1] != f {
		t.Fatal("the flight was not returned to the pool once the delayed ACK left")
	}
	n.step()
	if c.fl != 0 {
		t.Fatal("the sender kept its flight after its data was acknowledged")
	}

	// A reply carries the ACK.
	c.Send([]byte("y"))
	n.step()
	f = s.flight(s.stack())
	if f == nil || f.daTimer == nil {
		t.Fatal("the second request's delayed ACK did not borrow a flight")
	}
	out = n.b.stack.SegsOut
	s.Send([]byte("reply"))
	if s.flight(s.stack()) != f || f.daTimer != nil || s.retransLen(s.stack()) != 1 {
		t.Fatal("the reply did not cancel the delayed ACK and keep the flight for itself")
	}
	n.step()
	if s.flight(s.stack()) != f {
		t.Fatal("the flight was returned before the reply was acknowledged")
	}
	n.advance(2 * da) // the client's own delayed ACK acknowledges the reply
	if s.fl != 0 || c.fl != 0 {
		t.Fatalf("flights kept after the reply was acknowledged: server %v, client %v", s.fl != 0, c.fl != 0)
	}
	if got := n.b.stack.SegsOut - out; got != 1 {
		t.Fatalf("the server sent %d segments, want the reply alone (no pure ACK)", got)
	}
}

// TestFlightTimeWait: a connection in TIME_WAIT holds a flight for its
// 2MSL timer and nothing else, for exactly 2MSL; destroy returns it.
func TestFlightTimeWait(t *testing.T) {
	const tw = time.Millisecond
	n, c, _, deadline := timeWaitFixture(t, tw)
	f := c.flight(c.stack())
	if f == nil || f.timer == nil || f.daTimer != nil || f.reasm != nil || c.retransLen(c.stack()) != 0 {
		t.Fatal("TIME_WAIT does not hold a flight with the 2MSL timer alone")
	}
	n.advance(time.Duration(deadline-n.now) - 2*timerwheel.DefaultTick)
	if c.State() != StateTimeWait || c.flight(c.stack()) != f {
		t.Fatalf("before the 2MSL deadline: state %v, flight kept %v", c.State(), c.flight(c.stack()) == f)
	}
	free := len(n.a.stack.flightFree)
	n.advance(2 * timerwheel.DefaultTick)
	if c.State() != StateClosed || c.fl != 0 {
		t.Fatalf("at the 2MSL deadline: state %v, flight kept %v", c.State(), c.fl != 0)
	}
	pool := n.a.stack.flightFree
	if len(pool) != free+1 || n.a.stack.flights[pool[len(pool)-1]-1] != f {
		t.Fatal("destroy did not return the flight to the pool")
	}
	if f.timer != nil {
		t.Fatal("the pooled flight still names the fired 2MSL timer")
	}
}

// TestZeroAllocDelAckBorrow: a warm borrow/return cycle whose only
// pending work is a delayed ACK — an in-order segment arrives, its ACK
// is deferred on a borrowed flight, the timeout fires, and Flush sends
// the ACK and returns the flight — allocates nothing.
func TestZeroAllocDelAckBorrow(t *testing.T) {
	var now int64
	s := quietStack(&now, func(cfg *Config) { cfg.DelAck = 100 * time.Microsecond })
	c, err := s.Connect(wire.Addr4(10, 0, 0, 2), 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-establish: the three-way handshake is not under test.
	c.state = StateEstablished
	c.sndUna++
	c.sndNxt = c.sndUna
	c.sndWnd = 1 << 20
	c.rcvNxt = 1000
	c.cancelRTO(c.stack())
	c.settle(c.stack())

	payload := []byte("sixteen byte msg")
	segBuf := make([]byte, 64)
	srcIP, dstIP := wire.Addr4(10, 0, 0, 2), wire.Addr4(10, 0, 0, 1)
	cycle := func() {
		hdr := wire.TCPHeader{
			SrcPort: c.key.DstPort, DstPort: c.key.SrcPort,
			Seq: c.rcvNxt, Ack: c.sndNxt, Flags: wire.TCPAck | wire.TCPPsh,
			Window: 0xffff, WScale: -1,
		}
		seg := segBuf[:hdr.Len()+len(payload)]
		hdr.Marshal(seg)
		copy(seg[hdr.Len():], payload)
		wire.SetTCPChecksum(srcIP, dstIP, seg)
		s.Input(srcIP, dstIP, seg, nil)
		if c.fl == 0 || c.flight(c.stack()).daTimer == nil {
			t.Fatal("the segment's ACK was not deferred on a borrowed flight")
		}
		c.RecvDone(len(payload))
		now += int64(200 * time.Microsecond)
		s.cfg.Wheel.Advance(now)
		s.Flush()
		if c.fl != 0 {
			t.Fatal("the flight was not returned once the delayed ACK left")
		}
		// The OS models' quiescence query trims the wheel's heap.
		s.cfg.Wheel.NextDeadline()
	}
	cycle() // warm the pool, the timer free list and the needsAck backing
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("a delayed-ACK borrow/return cycle allocates %.2f per op, want 0", allocs)
	}
}
