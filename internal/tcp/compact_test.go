package tcp

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// quietStack builds a stack whose clock the test owns.
func quietStack(now *int64, mod func(*Config)) *Stack {
	cfg := Config{
		LocalIP: wire.Addr4(10, 0, 0, 1),
		Now:     func() int64 { return *now },
		Wheel:   timerwheel.New(timerwheel.DefaultTick, 0),
		Output:  func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {},
		Events:  &quietEvents{},
		Seed:    7,
	}
	if mod != nil {
		mod(&cfg)
	}
	return NewStack(cfg)
}

// TestRTTNarrowingExact: the estimator stored as 32-bit nanoseconds
// computes, to the nanosecond, what the time.Duration fields it
// replaced computed — for any sample sequence below the 4 s cap. The
// reference below is the previous implementation verbatim (with the
// timeout capped at maxRTO, where the backoff path always capped it).
func TestRTTNarrowingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		var now int64 = 1
		s := quietStack(&now, nil)
		c := s.newConn(tableKey(seq))
		var srtt, rttvar, rto time.Duration
		// Sample magnitudes from 1 ns to just under 4 s, log-uniform.
		scale := time.Duration(1) << uint(rng.Intn(32))
		for i := 0; i < 64; i++ {
			sample := time.Duration(rng.Int63n(int64(scale))) + 1
			if sample >= maxRTO {
				sample = maxRTO - 1
			}
			if srtt == 0 {
				srtt, rttvar = sample, sample/2
			} else {
				delta := srtt - sample
				if delta < 0 {
					delta = -delta
				}
				rttvar = (3*rttvar + delta) / 4
				srtt = (7*srtt + sample) / 8
			}
			rto = srtt + 4*rttvar
			if rto < s.cfg.MinRTO {
				rto = s.cfg.MinRTO
			}
			if rto > maxRTO {
				rto = maxRTO
			}

			c.rttPending, c.rttSeq, c.rttStart = true, c.sndNxt, now
			now += int64(sample)
			c.updateRTT(c.sndNxt)
			if time.Duration(c.srtt) != srtt || time.Duration(c.rttvar) != rttvar || time.Duration(c.rto) != rto {
				t.Fatalf("seq %d sample %d (%v): stored srtt/rttvar/rto = %d/%d/%d ns, reference %d/%d/%d",
					seq, i, sample, c.srtt, c.rttvar, c.rto, srtt, rttvar, rto)
			}
		}
	}
}

// TestRTOBackoffClampsAtMax: exponential backoff doubles the timeout up
// to exactly maxRTO and holds there — the bound that lets the stored
// form be 32 bits.
func TestRTOBackoffClampsAtMax(t *testing.T) {
	var now int64
	s := quietStack(&now, func(c *Config) { c.MaxRexmits = 64 })
	c, err := s.Connect(wire.Addr4(10, 0, 0, 2), 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := initialRTO
	for i := 0; i < 40; i++ {
		if got := time.Duration(c.rto); got != want {
			t.Fatalf("after %d timeouts rto = %v, want %v", i, got, want)
		}
		c.onRTO()
		if want *= 2; want > maxRTO {
			want = maxRTO
		}
	}
	if time.Duration(c.rto) != 4*time.Second {
		t.Fatalf("rto settled at %v, want exactly 4s", time.Duration(c.rto))
	}
}

// synTo injects a SYN for port from the given client port.
func synTo(s *Stack, port, from uint16) wire.FlowKey {
	src, dst := wire.Addr4(10, 0, 0, 2), s.cfg.LocalIP
	hdr := wire.TCPHeader{
		SrcPort: from, DstPort: port, Seq: 1000, Flags: wire.TCPSyn,
		Window: 0xffff, MSS: wire.MSS, WScale: 0,
	}
	seg := make([]byte, hdr.Len())
	hdr.Marshal(seg)
	wire.SetTCPChecksum(src, dst, seg)
	s.Input(src, dst, seg, nil)
	return wire.FlowKey{SrcIP: dst, DstIP: src, SrcPort: port, DstPort: from, Proto: wire.ProtoTCP}
}

// finishHandshake injects the final ACK for an embryonic connection.
func finishHandshake(s *Stack, c *Conn) {
	hdr := wire.TCPHeader{
		SrcPort: c.key.DstPort, DstPort: c.key.SrcPort,
		Seq: 1001, Ack: c.iss + 1, Flags: wire.TCPAck,
		Window: 0xffff, WScale: -1,
	}
	seg := make([]byte, hdr.Len())
	hdr.Marshal(seg)
	wire.SetTCPChecksum(c.key.DstIP, c.key.SrcIP, seg)
	s.Input(c.key.DstIP, c.key.SrcIP, seg, nil)
}

// TestListenerReopenKeepsBacklogCount: connections find their listener
// by port, so a listener closed and re-opened on the same port while a
// SynRcvd connection is pending must neither lose that connection from
// the backlog count nor be driven negative when it completes or dies.
func TestListenerReopenKeepsBacklogCount(t *testing.T) {
	var now int64
	s := quietStack(&now, nil)
	l1, err := s.Listen(80, nil)
	if err != nil {
		t.Fatal(err)
	}
	k1 := synTo(s, 80, 5001)
	k2 := synTo(s, 80, 5002)
	if l1.embryonic != 2 {
		t.Fatalf("embryonic = %d after two SYNs, want 2", l1.embryonic)
	}

	// Closed, nothing listening: a pending handshake completes without
	// a count to maintain.
	s.CloseListener(l1)
	finishHandshake(s, s.conns.get(k1))
	if st := s.conns.get(k1).state; st != StateEstablished {
		t.Fatalf("pending handshake did not complete across the close: %v", st)
	}

	// Re-opened: the one still-pending connection counts against the
	// new listener, and leaving SynRcvd — by completing or by dying —
	// takes it back off, never below zero.
	l2, err := s.Listen(80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l2.embryonic != 1 {
		t.Fatalf("re-opened listener counts %d pending, want 1", l2.embryonic)
	}
	k3 := synTo(s, 80, 5003)
	if l2.embryonic != 2 {
		t.Fatalf("embryonic = %d, want 2", l2.embryonic)
	}
	finishHandshake(s, s.conns.get(k2))
	s.conns.get(k3).Abort()
	if l2.embryonic != 0 {
		t.Fatalf("embryonic = %d after both pending connections left SynRcvd, want 0", l2.embryonic)
	}
	// Teardown of the now-established connections must not touch it.
	s.conns.get(k1).Abort()
	s.conns.get(k2).Abort()
	if l2.embryonic != 0 || s.ConnCount() != 0 {
		t.Fatalf("embryonic = %d, conns = %d after teardown, want 0/0", l2.embryonic, s.ConnCount())
	}
}

// TestConnStateSizes pins the PCB's size: an established connection is
// the unit the Fig. 4 population multiplies, so growth here is a
// reviewed decision, not a side effect (DESIGN.md, "Per-connection
// memory budget").
func TestConnStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(Conn{}); got > 160 {
		t.Fatalf("tcp.Conn is %d bytes, budget 160", got)
	}
	// A tracked segment's size is part of every connection's footprint
	// while data is in flight (Footprint): naming its backing must not
	// grow it.
	if got := unsafe.Sizeof(txSeg{}); got > 112 {
		t.Fatalf("txSeg is %d bytes, budget 112", got)
	}
}
