package nicsim

import (
	"testing"
	"testing/quick"
	"time"

	"ix/internal/fabric"
	"ix/internal/sim"
	"ix/internal/wire"
)

// TestToeplitzKnownVectors checks against the Microsoft RSS verification
// suite values (the same vectors the 82599 datasheet references).
func TestToeplitzKnownVectors(t *testing.T) {
	cases := []struct {
		src, dst     wire.IPv4
		sport, dport uint16
		want         uint32
	}{
		// From the Microsoft RSS test suite (IPv4 with TCP ports).
		{wire.Addr4(66, 9, 149, 187), wire.Addr4(161, 142, 100, 80), 2794, 1766, 0x51ccc178},
		{wire.Addr4(199, 92, 111, 2), wire.Addr4(65, 69, 140, 83), 14230, 4739, 0xc626b0ea},
		{wire.Addr4(24, 19, 198, 95), wire.Addr4(12, 22, 207, 184), 12898, 38024, 0x5c2b394a},
		{wire.Addr4(38, 27, 205, 30), wire.Addr4(209, 142, 163, 6), 48228, 2217, 0xafc7327f},
		{wire.Addr4(153, 39, 163, 191), wire.Addr4(202, 188, 127, 2), 44251, 1303, 0x10e828a2},
	}
	for _, c := range cases {
		k := wire.FlowKey{SrcIP: c.src, DstIP: c.dst, SrcPort: c.sport, DstPort: c.dport, Proto: wire.ProtoTCP}
		got := RSSHash(DefaultRSSKey[:], k)
		if got != c.want {
			t.Errorf("RSSHash(%v) = %#x, want %#x", k, got, c.want)
		}
	}
}

// TestRSSFlowConsistency: all packets of one flow map to one queue.
func TestRSSFlowConsistency(t *testing.T) {
	f := func(src, dst uint32, sport, dport uint16) bool {
		k := wire.FlowKey{SrcIP: wire.IPv4(src), DstIP: wire.IPv4(dst),
			SrcPort: sport, DstPort: dport, Proto: wire.ProtoTCP}
		a := RSSHash(DefaultRSSKey[:], k)
		b := RSSHash(DefaultRSSKey[:], k)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func buildTCPFrame(dst wire.MAC, key wire.FlowKey) []byte {
	f := make([]byte, wire.EthHdrLen+wire.IPv4HdrLen+wire.TCPHdrLen)
	(&wire.EthHeader{Dst: dst, Src: wire.MAC{1}, EtherType: wire.EtherTypeIPv4}).Marshal(f)
	iph := wire.IPv4Header{TotalLen: uint16(len(f) - wire.EthHdrLen), TTL: 64, Proto: wire.ProtoTCP,
		Src: key.SrcIP, Dst: key.DstIP}
	iph.Marshal(f[wire.EthHdrLen:])
	th := wire.TCPHeader{SrcPort: key.SrcPort, DstPort: key.DstPort, WScale: -1}
	th.Marshal(f[wire.EthHdrLen+wire.IPv4HdrLen:])
	return f
}

func newTestNIC(t *testing.T, queues int) (*sim.Engine, *NIC, *fabric.Link) {
	t.Helper()
	eng := sim.NewEngine(1)
	n := New(eng, wire.MAC{2, 0, 0, 0, 0, 1}, Config{Queues: queues, RingSize: 8})
	l := fabric.NewLink(eng, 10*fabric.Gbps, time.Microsecond)
	n.AttachPort(l.Port(0))
	return eng, n, l
}

func TestNICClassifiesByRSS(t *testing.T) {
	eng, n, l := newTestNIC(t, 4)
	counts := make([]uint64, 4)
	for q := 0; q < 4; q++ {
		q := q
		n.RxQueue(q).OnFrame = func() { counts[q]++ }
	}
	for p := 0; p < 64; p++ {
		key := wire.FlowKey{SrcIP: wire.Addr4(10, 0, 0, 3), DstIP: wire.Addr4(10, 0, 0, 1),
			SrcPort: uint16(40000 + p), DstPort: 80, Proto: wire.ProtoTCP}
		want := n.RSSQueue(key)
		l.Port(1).Send(fabric.NewFrame(buildTCPFrame(n.MAC, key)))
		eng.Run()
		// The frame must be in the queue RSS selected.
		got := -1
		for q := 0; q < 4; q++ {
			if n.RxQueue(q).Len() > 0 {
				got = q
			}
		}
		if got != want {
			t.Fatalf("flow port %d landed on queue %d, RSSQueue says %d", 40000+p, got, want)
		}
		n.RxQueue(got).Take(8)
		n.RxQueue(got).PostDescriptors(8)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	eng, n, l := newTestNIC(t, 1)
	key := wire.FlowKey{SrcIP: wire.Addr4(10, 0, 0, 3), DstIP: wire.Addr4(10, 0, 0, 1),
		SrcPort: 4000, DstPort: 80, Proto: wire.ProtoTCP}
	for i := 0; i < 12; i++ { // ring size 8
		l.Port(1).Send(fabric.NewFrame(buildTCPFrame(n.MAC, key)))
	}
	eng.Run()
	if n.RxQueue(0).Len() != 8 {
		t.Fatalf("ring holds %d", n.RxQueue(0).Len())
	}
	if n.RxDrops != 4 {
		t.Fatalf("drops = %d, want 4", n.RxDrops)
	}
	// Consuming and reposting descriptors restores delivery.
	n.RxQueue(0).Take(8)
	n.RxQueue(0).PostDescriptors(8)
	l.Port(1).Send(fabric.NewFrame(buildTCPFrame(n.MAC, key)))
	eng.Run()
	if n.RxQueue(0).Len() != 1 {
		t.Fatal("delivery did not resume")
	}
}

// TestRingOverflowReleasesPooledFrames: every frame the NIC edge drops
// (ring overflow on deliver, descriptor exhaustion on Inject, TX ring
// starvation on Post) must go back to its sender's pool — the
// frame-conservation contract the fault-injection chaos tests assert
// cluster-wide.
func TestRingOverflowReleasesPooledFrames(t *testing.T) {
	eng, n, l := newTestNIC(t, 1)
	pool := fabric.NewFramePool()
	key := wire.FlowKey{SrcIP: wire.Addr4(10, 0, 0, 3), DstIP: wire.Addr4(10, 0, 0, 1),
		SrcPort: 4000, DstPort: 80, Proto: wire.ProtoTCP}
	mk := func() *fabric.Frame {
		raw := buildTCPFrame(n.MAC, key)
		f := pool.Get(len(raw))
		copy(f.Data, raw)
		return f
	}
	for i := 0; i < 20; i++ { // ring size 8: 12 drops
		l.Port(1).Send(mk())
	}
	eng.Run()
	if n.RxDrops == 0 {
		t.Fatal("no overflow drops")
	}
	if got := pool.InUse(); got != n.RxQueue(0).Len() {
		t.Fatalf("pool holds %d frames, ring holds %d — dropped frames not released",
			got, n.RxQueue(0).Len())
	}
	// Inject into a descriptor-exhausted queue also releases.
	before := pool.InUse()
	if n.RxQueue(0).Inject(mk()) {
		t.Fatal("inject succeeded without descriptors")
	}
	if pool.InUse() != before {
		t.Fatal("inject drop did not release the frame")
	}
	// Draining the ring releases the survivors (the OS model's copy-out).
	for _, f := range n.RxQueue(0).Take(8) {
		f.Release()
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d frames leaked", pool.InUse())
	}
}

func TestInterruptModeration(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, wire.MAC{2}, Config{Queues: 1, RingSize: 64, ITR: 10 * time.Microsecond})
	l := fabric.NewLink(eng, 10*fabric.Gbps, time.Microsecond)
	n.AttachPort(l.Port(0))
	q := n.RxQueue(0)
	q.Mode = ModeInterrupt
	intrs := 0
	q.OnInterrupt = func() {
		intrs++
		q.Take(64)
		q.PostDescriptors(64)
		q.EnableInterrupt()
	}
	q.EnableInterrupt()
	key := wire.FlowKey{SrcIP: wire.Addr4(1, 1, 1, 1), DstIP: wire.Addr4(2, 2, 2, 2),
		SrcPort: 9, DstPort: 80, Proto: wire.ProtoTCP}
	// 20 frames over 20µs: with a 10µs ITR, at most ~4 interrupts.
	for i := 0; i < 20; i++ {
		at := eng.Now().Add(time.Duration(i) * time.Microsecond)
		f := buildTCPFrame(n.MAC, key)
		eng.At(at, func() { l.Port(1).Send(fabric.NewFrame(f)) })
	}
	eng.Run()
	if intrs == 0 || intrs > 5 {
		t.Fatalf("interrupts = %d, want 1..5 (moderated)", intrs)
	}
	if n.Interrupts != uint64(intrs) {
		t.Fatalf("counter mismatch: %d vs %d", n.Interrupts, intrs)
	}
}

func TestRETARebalance(t *testing.T) {
	_, n, _ := newTestNIC(t, 4)
	n.SpreadRETA(2)
	for p := 0; p < 128; p++ {
		key := wire.FlowKey{SrcIP: wire.Addr4(9, 9, 9, 9), DstIP: wire.Addr4(1, 1, 1, 1),
			SrcPort: uint16(p * 131), DstPort: 80, Proto: wire.ProtoTCP}
		if q := n.RSSQueue(key); q > 1 {
			t.Fatalf("RETA routed to inactive queue %d", q)
		}
	}
	n.SpreadRETA(4)
	seen := map[int]bool{}
	for p := 0; p < 512; p++ {
		key := wire.FlowKey{SrcIP: wire.Addr4(9, 9, 9, 9), DstIP: wire.Addr4(1, 1, 1, 1),
			SrcPort: uint16(p * 131), DstPort: 80, Proto: wire.ProtoTCP}
		seen[n.RSSQueue(key)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("after rebalance, queues used = %v", seen)
	}
}

// InFlight returns the number of un-completed descriptors.
func (t *TxQueue) InFlight() int {
	t.reclaim()
	return t.inFlight
}

// TestTxCompletion: a posted frame holds its descriptor until it has
// left the wire, and the next InFlight reclaims it without an event.
func TestTxCompletion(t *testing.T) {
	eng, n, _ := newTestNIC(t, 1)
	if !n.TxQueue(0).Post(fabric.NewFrame(make([]byte, 100))) {
		t.Fatal("post failed")
	}
	if got := n.TxQueue(0).InFlight(); got != 1 {
		t.Fatalf("in flight before departure = %d, want 1", got)
	}
	eng.Run()
	if got := n.TxQueue(0).InFlight(); got != 0 {
		t.Fatalf("in flight after departure = %d, want 0", got)
	}
}

// TestPlanRepartition: the minimal-move RETA plan touches only the
// buckets that must move, lands on a balanced table, and never references
// a queue outside [0, active).
func TestPlanRepartition(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, wire.MAC{2, 0, 0, 0, 0, 1}, Config{Queues: 4})
	n.SpreadRETA(1) // everything on queue 0

	apply := func(active int) []RetaChange {
		plan := n.PlanRepartition(active)
		for _, ch := range plan {
			if int(ch.To) >= active {
				t.Fatalf("plan for active=%d routes bucket %d to queue %d", active, ch.Bucket, ch.To)
			}
			if n.reta[ch.Bucket] != ch.From {
				t.Fatalf("plan From mismatch at bucket %d", ch.Bucket)
			}
			n.SetRETAEntry(ch.Bucket, int(ch.To))
		}
		return plan
	}

	// Growing 1→2 must move about half the buckets, no more.
	plan := apply(2)
	if len(plan) != RetaSize/2 {
		t.Fatalf("1→2 moved %d buckets, want %d", len(plan), RetaSize/2)
	}
	// Growing 2→3: only ~1/3 of buckets move (round-robin rewrite would
	// churn ~2/3).
	plan = apply(3)
	if len(plan) < RetaSize/4 || len(plan) > RetaSize/2 {
		t.Fatalf("2→3 moved %d buckets", len(plan))
	}
	apply(4)

	// Balanced within one at every step.
	count := map[uint8]int{}
	for _, q := range n.reta {
		count[q]++
	}
	for q, c := range count {
		if c != RetaSize/4 {
			t.Fatalf("queue %d owns %d buckets after 4-way repartition", q, c)
		}
	}

	// Shrinking 4→3 moves exactly the revoked queue's buckets.
	plan = apply(3)
	if len(plan) != RetaSize/4 {
		t.Fatalf("4→3 moved %d buckets, want %d", len(plan), RetaSize/4)
	}
	for _, ch := range plan {
		if ch.From != 3 {
			t.Fatalf("4→3 moved bucket %d away from surviving queue %d", ch.Bucket, ch.From)
		}
	}
}

// TestExtractInject: migration drain preserves order and descriptor
// accounting.
func TestExtractInject(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, wire.MAC{2, 0, 0, 0, 0, 2}, Config{Queues: 2, RingSize: 8})
	src, dst := n.RxQueue(0), n.RxQueue(1)
	for i := 0; i < 6; i++ {
		src.deliver(&fabric.Frame{Data: []byte{byte(i)}})
	}
	moved := src.Extract(func(f *fabric.Frame) bool { return f.Data[0]%2 == 0 })
	if len(moved) != 3 || src.Len() != 3 {
		t.Fatalf("extract split %d/%d", len(moved), src.Len())
	}
	if src.DescAvail() != 8-3 {
		t.Fatalf("source descriptors not recycled: %d", src.DescAvail())
	}
	for _, f := range moved {
		if !dst.Inject(f) {
			t.Fatal("inject dropped with free descriptors")
		}
	}
	got := dst.Take(10)
	for i, f := range got {
		if f.Data[0] != byte(2*i) {
			t.Fatalf("order broken at %d: %v", i, f.Data)
		}
	}
	// Take does not recycle descriptors — the driver re-posts them with
	// PostDescriptors (the doorbell model) — so the injects' descriptors
	// stay consumed.
	if dst.DescAvail() != 8-3 {
		t.Fatalf("dest descriptors after take: %d", dst.DescAvail())
	}
}

// TestIsTCPSYN: the fixed-offset handshake classifier recognizes SYN and
// SYN-ACK frames and nothing else.
func TestIsTCPSYN(t *testing.T) {
	frame := func(proto byte, flags byte) []byte {
		f := make([]byte, wire.EthHdrLen+wire.IPv4HdrLen+20)
		f[12], f[13] = 0x08, 0x00 // EtherType IPv4
		ip := f[wire.EthHdrLen:]
		ip[0] = 0x45
		ip[9] = proto
		f[wire.EthHdrLen+wire.IPv4HdrLen+13] = flags
		return f
	}
	cases := []struct {
		name string
		data []byte
		want bool
	}{
		{"syn", frame(wire.ProtoTCP, wire.TCPSyn), true},
		{"syn-ack", frame(wire.ProtoTCP, wire.TCPSyn|wire.TCPAck), true},
		{"pure-ack", frame(wire.ProtoTCP, wire.TCPAck), false},
		{"data-psh", frame(wire.ProtoTCP, wire.TCPAck|wire.TCPPsh), false},
		{"udp", frame(wire.ProtoUDP, wire.TCPSyn), false},
		{"short", []byte{0x08, 0x00}, false},
	}
	for _, c := range cases {
		if got := IsTCPSYN(c.data); got != c.want {
			t.Errorf("%s: IsTCPSYN = %v, want %v", c.name, got, c.want)
		}
	}
	nonIP := frame(wire.ProtoTCP, wire.TCPSyn)
	nonIP[12] = 0x86 // not IPv4
	if IsTCPSYN(nonIP) {
		t.Error("non-IPv4 frame classified as SYN")
	}
}
