package tcp

import (
	"testing"
	"time"

	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// synEmission is one SYN or SYN-ACK a side emitted, with its instant.
type synEmission struct {
	at    int64
	from  string
	flags uint8
}

// synLog records handshake emissions and drops the next loseSyn SYNs
// from a and the next SYN-ACK from b (loseSynAck).
type synLog struct {
	n          *testNet
	loseSyn    int
	loseSynAck bool
	out        []synEmission
}

func (l *synLog) drop(from *side, hdr *wire.TCPHeader, _ []byte) bool {
	if hdr.Flags&wire.TCPSyn == 0 {
		return false
	}
	l.out = append(l.out, synEmission{at: l.n.now, from: from.name, flags: hdr.Flags})
	switch {
	case l.loseSyn > 0 && from == l.n.a && hdr.Flags&wire.TCPAck == 0:
		l.loseSyn--
		return true
	case l.loseSynAck && from == l.n.b && hdr.Flags&wire.TCPAck != 0:
		l.loseSynAck = false
		return true
	}
	return false
}

// runWakes drives both wheels the way the OS models' idle wakes do —
// the clock jumps to the earliest NextFireTime, the wheels advance and
// the network settles — until no timer is due by horizon, and returns
// the instants it woke at.
func (n *testNet) runWakes(horizon int64) []int64 {
	var wakes []int64
	for {
		next, ok := int64(0), false
		for _, w := range []*timerwheel.Wheel{n.a.wheel, n.b.wheel} {
			if t, pending := w.NextFireTime(); pending && (!ok || t < next) {
				next, ok = t, true
			}
		}
		if !ok || next > horizon {
			return wakes
		}
		wakes = append(wakes, next)
		n.advance(time.Duration(next - n.now))
	}
}

// TestSynRTOFiresAtPerConnectionInstants: handshake RTOs share one wheel
// timer per stack, and still wake and retransmit exactly where a timer
// per connection would: a lost SYN at its connect instant plus
// initialRTO — and one lost a microsecond later, due in the same tick,
// in the same wake — a lost SYN-ACK at its admission instant plus
// initialRTO, and no wake at the deadline of a handshake that completed
// — which is the head of its stack's queue here, so a queue that left
// its timer on a cancelled head would wake there.
func TestSynRTOFiresAtPerConnectionInstants(t *testing.T) {
	n := newTestNet(t, nil)
	log := &synLog{n: n}
	n.drop = log.drop
	if _, err := n.b.stack.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	connect := func(at time.Duration) *Conn {
		n.now = int64(at)
		c, err := n.a.stack.Connect(n.b.ip, 80, 0)
		if err != nil {
			t.Fatal(err)
		}
		n.step()
		return c
	}
	c1 := connect(0)
	if c1.State() != StateEstablished {
		t.Fatalf("c1 is %v, want established", c1.State())
	}
	log.loseSyn = 2
	c2 := connect(100 * time.Microsecond)
	c2b := connect(101 * time.Microsecond)
	log.loseSynAck = true
	c3 := connect(200 * time.Microsecond)
	log.out = nil

	rto := int64(initialRTO)
	wakes := n.runWakes(int64(1500 * time.Microsecond))
	if want := []int64{100_000 + rto, 200_000 + rto}; !equalInstants(wakes, want) {
		t.Fatalf("woke at %v, want %v", wakes, want)
	}
	// c2's and c2b's retransmitted SYNs draw their first SYN-ACKs; c3's
	// client and server both retransmit, and the server ignores the
	// duplicate SYN.
	want := []synEmission{
		{at: 100_000 + rto, from: "a", flags: wire.TCPSyn},
		{at: 100_000 + rto, from: "a", flags: wire.TCPSyn},
		{at: 100_000 + rto, from: "b", flags: wire.TCPSyn | wire.TCPAck},
		{at: 100_000 + rto, from: "b", flags: wire.TCPSyn | wire.TCPAck},
		{at: 200_000 + rto, from: "a", flags: wire.TCPSyn},
		{at: 200_000 + rto, from: "b", flags: wire.TCPSyn | wire.TCPAck},
	}
	if len(log.out) != len(want) {
		t.Fatalf("handshake emissions %+v, want %+v", log.out, want)
	}
	for i := range want {
		if log.out[i] != want[i] {
			t.Fatalf("emission %d is %+v, want %+v", i, log.out[i], want[i])
		}
	}
	for _, c := range []*Conn{c2, c2b, c3} {
		if c.State() != StateEstablished {
			t.Fatalf("%v is %v after its retransmission, want established", c.key, c.State())
		}
	}
}

func equalInstants(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSynRTOWheelAfterHandshakes: what the OS models read off the wheel
// — Len and NextFireTime — is what per-connection handshake timers gave.
// With one handshake still waiting on a lost SYN, the client's wheel
// holds one timer due at that SYN's deadline and the server's, whose
// handshakes all completed, holds none; once it completes too, neither
// wheel holds a timer.
func TestSynRTOWheelAfterHandshakes(t *testing.T) {
	n := newTestNet(t, nil)
	log := &synLog{n: n}
	n.drop = log.drop
	if _, err := n.b.stack.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	var lost *Conn
	for i := 0; i < 8; i++ {
		n.now = int64(i) * int64(10*time.Microsecond)
		log.loseSyn = 0
		if i == 3 {
			log.loseSyn = 1
		}
		c, err := n.a.stack.Connect(n.b.ip, 80, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			lost = c
		}
		n.step()
	}
	deadline := int64(30*time.Microsecond) + int64(initialRTO)
	if got := n.a.wheel.Len(); got != 1 {
		t.Fatalf("client wheel holds %d timers, want 1 (the lost SYN's)", got)
	}
	if at, ok := n.a.wheel.NextFireTime(); !ok || at != deadline {
		t.Fatalf("client NextFireTime = %d, %v; want %d, true", at, ok, deadline)
	}
	if got := n.b.wheel.Len(); got != 0 {
		t.Fatalf("server wheel holds %d timers after every handshake completed, want 0", got)
	}
	if _, ok := n.b.wheel.NextFireTime(); ok {
		t.Fatal("server wheel has a next fire time with no handshake pending")
	}

	n.advance(time.Duration(deadline - n.now))
	if lost.State() != StateEstablished {
		t.Fatalf("lost-SYN connection is %v after its retransmission, want established", lost.State())
	}
	for _, s := range []*side{n.a, n.b} {
		if got := s.wheel.Len(); got != 0 {
			t.Fatalf("%s wheel holds %d timers after every handshake completed, want 0", s.name, got)
		}
		if s.stack.synTimer != nil {
			t.Fatalf("%s stack still holds its handshake timer", s.name)
		}
	}
}

// TestSynQBoundedAcrossChurn: a connect/RST loop that always has a
// handshake in progress never drains the client's queue, so the queue
// only ever loses dead entries at its head. Its backing must stay
// bounded by the handshakes in progress, not grow with the loop.
func TestSynQBoundedAcrossChurn(t *testing.T) {
	n := newTestNet(t, nil)
	if _, err := n.b.stack.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	var held []delivery
	var prev *Conn
	for i := 0; i < 5000; i++ {
		n.now += int64(time.Microsecond)
		n.a.wheel.Advance(n.now)
		n.b.wheel.Advance(n.now)
		c, err := n.a.stack.Connect(n.b.ip, 80, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Hold the new SYN back one round; deliver the previous one.
		n.queue, held = held, n.queue
		n.step()
		if prev != nil {
			if prev.State() != StateEstablished {
				t.Fatalf("round %d: previous connection is %v", i, prev.State())
			}
			prev.Abort()
			n.step()
		}
		prev = c
	}
	s := n.a.stack
	if live := len(s.synQ) - s.synHead; live != 1 {
		t.Fatalf("%d live queue entries, want 1 (the held handshake)", live)
	}
	if c := cap(s.synQ); c > 128 {
		t.Fatalf("queue backing grew to %d entries across the loop", c)
	}
	if got := n.b.stack.ConnCount(); got != 0 {
		t.Fatalf("server holds %d connections, want 0", got)
	}
}

// TestMigrateEmbryonicKeepsDeadline: an embryonic connection migrated
// to another stack of the same host keeps its handshake deadline, now
// an ordinary timer on the destination's wheel, and takes it off the
// source: the source's wheel holds no timer afterwards.
func TestMigrateEmbryonicKeepsDeadline(t *testing.T) {
	n := newTestNet(t, nil)
	log := &synLog{n: n, loseSyn: 1}
	n.drop = log.drop
	n.now = int64(50 * time.Microsecond)
	c, err := n.a.stack.Connect(n.b.ip, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := n.now + int64(initialRTO)
	var emitted []int64
	dstWheel := timerwheel.New(timerwheel.DefaultTick, 0)
	dst := NewStack(Config{
		LocalIP: n.a.ip,
		Now:     func() int64 { return n.now },
		Wheel:   dstWheel,
		Output: func(_ *Conn, hdr *wire.TCPHeader, _ [][]byte) {
			if hdr.Flags&wire.TCPSyn != 0 {
				emitted = append(emitted, n.now)
			}
		},
		Events: n.a,
	})
	n.now = int64(300 * time.Microsecond)
	c = dst.Conn(n.a.stack.Migrate(c.ID(), dst))
	if got := n.a.wheel.Len(); got != 0 {
		t.Fatalf("source wheel holds %d timers after the migration, want 0", got)
	}
	if _, ok := n.a.wheel.NextFireTime(); ok {
		t.Fatal("source wheel still has a next fire time")
	}
	if at, ok := dstWheel.NextFireTime(); !ok || at != deadline {
		t.Fatalf("destination NextFireTime = %d, %v; want %d, true", at, ok, deadline)
	}
	n.now = deadline
	dstWheel.Advance(n.now)
	if len(emitted) != 1 || emitted[0] != deadline {
		t.Fatalf("migrated SYN retransmitted at %v, want once at %d", emitted, deadline)
	}
	if c.State() != StateSynSent {
		t.Fatalf("migrated connection is %v, want SynSent", c.State())
	}
}
