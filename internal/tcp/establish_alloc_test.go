package tcp

import (
	"testing"

	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// TestZeroAllocConnEstablish: the passive-establishment cycle — SYN
// demux miss, listener knock, connection insert into the presized
// table, batched SYN-ACK at Flush, final-ACK demux, RST teardown — and
// the active one — port probe, SYN, SYN-ACK demux, handshake ACK at
// Flush, RST teardown — allocate nothing on a warmed arena: the PCB
// comes from the stack's arena, whose freed slot the next cycle reuses.
// Everything on the establishment fast path (the //ix:hotpath-annotated
// Input demux, passiveOpen insert, handshake replies through the stack's
// shared header scratch, the stack's queued handshake RTOs) must be
// allocation-free, or the large Fig. 4 ramps pay it a million times
// over. Neither handshake borrows a flight: the stack's flight pool is
// never touched.
func TestZeroAllocConnEstablish(t *testing.T) {
	ev := &quietEvents{}
	var now int64
	wheel := timerwheel.New(timerwheel.DefaultTick, 0)
	s := NewStack(Config{
		LocalIP:       wire.Addr4(10, 0, 0, 1),
		Now:           func() int64 { return now },
		Wheel:         wheel,
		Output:        func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {},
		Events:        ev,
		Seed:          7,
		ExpectedConns: 16,
	})
	if _, err := s.Listen(80, nil); err != nil {
		t.Fatal(err)
	}

	srcIP, dstIP := wire.Addr4(10, 0, 0, 2), wire.Addr4(10, 0, 0, 1)
	key := connKey{
		SrcIP: dstIP, DstIP: srcIP,
		SrcPort: 80, DstPort: 5000,
	}
	const peerISS = 1000
	segBuf := make([]byte, 64)
	var hdr wire.TCPHeader
	inject := func() {
		seg := segBuf[:hdr.Len()]
		hdr.Marshal(seg)
		wire.SetTCPChecksum(srcIP, dstIP, seg)
		s.Input(srcIP, dstIP, seg, nil)
	}
	cycle := func() {
		// SYN: admitted, SYN-ACK owed to the next Flush.
		hdr = wire.TCPHeader{
			SrcPort: 5000, DstPort: 80,
			Seq: peerISS, Flags: wire.TCPSyn,
			Window: 0xffff, MSS: wire.MSS, WScale: 0,
		}
		inject()
		c := s.conns.get(key)
		if c == nil || c.state != StateSynRcvd {
			t.Fatalf("SYN not admitted: %+v", c)
		}
		if c.fl != 0 {
			t.Fatal("passive open borrowed a flight")
		}
		s.Flush() // batched SYN-ACK
		// Final ACK completes the handshake.
		hdr = wire.TCPHeader{
			SrcPort: 5000, DstPort: 80,
			Seq: peerISS + 1, Ack: c.sndUna + 1, Flags: wire.TCPAck,
			Window: 0xffff, WScale: -1,
		}
		inject()
		if c.state != StateEstablished || c.fl != 0 {
			t.Fatalf("handshake did not complete flight-free: state=%v, flight %d", c.state, c.fl)
		}
		// RST teardown, as the echo benchmarks close (avoids TIME_WAIT).
		hdr = wire.TCPHeader{
			SrcPort: 5000, DstPort: 80,
			Seq: peerISS + 1, Flags: wire.TCPRst,
			Window: 0xffff, WScale: -1,
		}
		inject()
		if s.conns.n != 0 {
			t.Fatalf("RST did not tear down: %d conns live", s.conns.n)
		}
		// Skim the timer heap's dead entries, as cycleEnd does.
		wheel.NextDeadline()
	}
	active := func() {
		c, err := s.Connect(srcIP, 80, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c.fl != 0 {
			t.Fatal("active open borrowed a flight")
		}
		hdr = wire.TCPHeader{
			SrcPort: 80, DstPort: c.key.SrcPort,
			Seq: peerISS, Ack: c.sndUna + 1, Flags: wire.TCPSyn | wire.TCPAck,
			Window: 0xffff, MSS: wire.MSS, WScale: 0,
		}
		inject()
		if c.state != StateEstablished || c.fl != 0 {
			t.Fatalf("active handshake did not complete flight-free: state=%v, flight %d", c.state, c.fl)
		}
		s.Flush() // the handshake ACK
		hdr = wire.TCPHeader{
			SrcPort: 80, DstPort: c.key.SrcPort,
			Seq: peerISS + 1, Flags: wire.TCPRst,
			Window: 0xffff, WScale: -1,
		}
		inject()
		if s.conns.n != 0 {
			t.Fatalf("RST did not tear down: %d conns live", s.conns.n)
		}
		wheel.NextDeadline()
	}
	for _, run := range []struct {
		name  string
		cycle func()
	}{{"passive", cycle}, {"active", active}} {
		run.cycle() // warm pools, scratch, the needsAck and queue backings
		allocs := testing.AllocsPerRun(1000, run.cycle)
		if allocs != 0 {
			t.Fatalf("%s establishment cycle allocates %.2f per conn, want 0", run.name, allocs)
		}
	}
	if n := len(s.flightFree); n != 0 {
		t.Fatalf("handshakes left %d flights in the stack's pool, want 0: none may borrow one", n)
	}
}

// TestEphemeralPortFullRange: one stack can carry >32k concurrent
// active opens to a single destination — the ephemeral allocator must
// recycle through the full 1024–65535 user range, not just the 32768+
// upper half. A shared-kernel client host (linuxstack) opening a 1M-
// scale Fig. 4 population hits exactly this: at 18 client hosts the old
// wrap-to-32768 allocator exhausted at 18×32768 = 589,824 connections
// fleet-wide, and every Connect past that burned the full 8192-probe
// budget before failing.
func TestEphemeralPortFullRange(t *testing.T) {
	ev := &quietEvents{}
	var now int64
	wheel := timerwheel.New(timerwheel.DefaultTick, 0)
	s := NewStack(Config{
		LocalIP:       wire.Addr4(10, 0, 0, 1),
		Now:           func() int64 { return now },
		Wheel:         wheel,
		Output:        func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {},
		Events:        ev,
		Seed:          7,
		ExpectedConns: 60_000,
	})
	dst := wire.Addr4(10, 0, 0, 2)
	const want = 60_000 // past the 32768-port upper half
	seen := make(map[uint16]bool, want)
	for i := 0; i < want; i++ {
		c, err := s.Connect(dst, 80, 0)
		if err != nil {
			t.Fatalf("connect %d failed: %v (port space must cover the full user range)", i, err)
		}
		p := c.key.SrcPort
		if p < 1024 {
			t.Fatalf("connect %d allocated reserved port %d", i, p)
		}
		if seen[p] {
			t.Fatalf("connect %d reused live port %d", i, p)
		}
		seen[p] = true
	}
	if s.conns.n != want {
		t.Fatalf("%d conns live, want %d", s.conns.n, want)
	}
}
