package fabric

import (
	"testing"
	"time"

	"ix/internal/sim"
	"ix/internal/wire"
)

type sink struct {
	frames []*Frame
	times  []sim.Time
	eng    *sim.Engine
}

func (s *sink) Deliver(f *Frame) {
	s.frames = append(s.frames, f)
	s.times = append(s.times, s.eng.Now())
}

func TestLinkSerializationAndLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 10*Gbps, 2*time.Microsecond)
	rx := &sink{eng: eng}
	l.Port(1).Attach(rx)
	// A 1000-byte frame: wire length 1024B → 819.2ns at 10Gbps.
	l.Port(0).Send(NewFrame(make([]byte, 1000)))
	eng.Run()
	if len(rx.frames) != 1 {
		t.Fatal("frame not delivered")
	}
	got := time.Duration(rx.times[0])
	want := time.Duration(float64(wire.WireLen(1000)*8)/(10*Gbps)*1e9) + 2*time.Microsecond
	if got < want-time.Nanosecond || got > want+time.Nanosecond {
		t.Fatalf("arrival = %v, want %v", got, want)
	}
}

func TestLinkBackToBackOrdering(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 10*Gbps, time.Microsecond)
	rx := &sink{eng: eng}
	l.Port(1).Attach(rx)
	for i := 0; i < 5; i++ {
		l.Port(0).Send(NewFrame(make([]byte, 1500)))
	}
	eng.Run()
	if len(rx.frames) != 5 {
		t.Fatalf("delivered %d frames", len(rx.frames))
	}
	for i := 1; i < 5; i++ {
		gap := rx.times[i] - rx.times[i-1]
		// Gaps equal full serialization time: frames queue behind each
		// other on the transmit side.
		want := time.Duration(float64(wire.WireLen(1500)*8) / (10 * Gbps) * 1e9)
		if time.Duration(gap) < want-time.Nanosecond {
			t.Fatalf("frames overlapped on the wire: gap %v < %v", time.Duration(gap), want)
		}
	}
}

func frameTo(dst, src wire.MAC) []byte {
	f := make([]byte, wire.EthMinFrame)
	(&wire.EthHeader{Dst: dst, Src: src, EtherType: 0x0800}).Marshal(f)
	return f
}

func TestSwitchForwarding(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng)
	macA := wire.MAC{2, 0, 0, 0, 0, 1}
	macB := wire.MAC{2, 0, 0, 0, 0, 2}
	la := NewLink(eng, 10*Gbps, time.Microsecond)
	lb := NewLink(eng, 10*Gbps, time.Microsecond)
	pa := sw.AddPort(la.Port(1))
	pb := sw.AddPort(lb.Port(1))
	sw.Learn(macA, pa)
	sw.Learn(macB, pb)
	rxB := &sink{eng: eng}
	lb.Port(0).Attach(rxB)
	la.Port(0).Send(NewFrame(frameTo(macB, macA)))
	eng.Run()
	if len(rxB.frames) != 1 {
		t.Fatal("frame not switched to B")
	}
	if sw.Forwarded != 1 {
		t.Fatalf("forwarded = %d", sw.Forwarded)
	}
}

func TestSwitchUnknownDstDropped(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng)
	la := NewLink(eng, 10*Gbps, time.Microsecond)
	sw.AddPort(la.Port(1))
	la.Port(0).Send(NewFrame(frameTo(wire.MAC{9, 9, 9, 9, 9, 9}, wire.MAC{1, 1, 1, 1, 1, 1})))
	eng.Run()
	if sw.Flooded != 1 {
		t.Fatalf("flooded = %d, want 1", sw.Flooded)
	}
}

func TestSwitchBroadcast(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng)
	var rxs []*sink
	var links []*Link
	for i := 0; i < 3; i++ {
		l := NewLink(eng, 10*Gbps, time.Microsecond)
		sw.AddPort(l.Port(1))
		rx := &sink{eng: eng}
		l.Port(0).Attach(rx)
		rxs = append(rxs, rx)
		links = append(links, l)
	}
	links[0].Port(0).Send(NewFrame(frameTo(wire.Broadcast, wire.MAC{1, 1, 1, 1, 1, 1})))
	eng.Run()
	if len(rxs[0].frames) != 0 {
		t.Fatal("broadcast echoed to ingress")
	}
	if len(rxs[1].frames) != 1 || len(rxs[2].frames) != 1 {
		t.Fatal("broadcast not replicated")
	}
}

// releaser consumes and immediately releases delivered frames, counting
// them — the well-behaved endpoint for pool-accounting tests.
type releaser struct{ n int }

func (r *releaser) Deliver(f *Frame) { r.n++; f.Release() }

func TestTxBufferTailDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 10*Gbps, time.Microsecond)
	rx := &releaser{}
	l.Port(1).Attach(rx)
	pool := NewFramePool()
	// Bound the egress to ~4 full frames of wire occupancy.
	l.Port(0).SetTxBuffer(4 * wire.WireLen(1500))
	for i := 0; i < 10; i++ {
		f := pool.Get(1500)
		l.Port(0).Send(f)
	}
	eng.Run()
	if l.Port(0).TxDropped == 0 {
		t.Fatal("bounded egress never tail-dropped")
	}
	if got := rx.n + int(l.Port(0).TxDropped); got != 10 {
		t.Fatalf("delivered %d + dropped %d != 10 sent", rx.n, l.Port(0).TxDropped)
	}
	if pool.InUse() != 0 {
		t.Fatalf("tail drop leaked %d frames from the pool", pool.InUse())
	}
	// Once the queue drains, the buffer accepts frames again.
	f := pool.Get(1500)
	l.Port(0).Send(f)
	eng.Run()
	if pool.InUse() != 0 {
		t.Fatalf("post-drain send leaked %d frames", pool.InUse())
	}
	if rx.n != 10-int(l.Port(0).TxDropped)+1 {
		t.Fatalf("post-drain frame not delivered (rx=%d)", rx.n)
	}
}

func TestFramePoolInUseAccounting(t *testing.T) {
	pool := NewFramePool()
	a, b := pool.Get(100), pool.Get(200)
	if pool.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", pool.InUse())
	}
	a.Release()
	if pool.InUse() != 1 {
		t.Fatalf("InUse = %d after one release, want 1", pool.InUse())
	}
	// Oversized frames are accounted but not recycled.
	big := pool.Get(FrameCap + 1)
	if pool.InUse() != 2 {
		t.Fatalf("InUse = %d with oversized frame, want 2", pool.InUse())
	}
	big.Release()
	b.Release()
	if pool.InUse() != 0 {
		t.Fatalf("InUse = %d at quiescence, want 0", pool.InUse())
	}
	// Recycled buffers do not double-count.
	c := pool.Get(64)
	if pool.InUse() != 1 {
		t.Fatalf("InUse = %d after recycle, want 1", pool.InUse())
	}
	c.Release()
	// Detach (broadcast replication) balances the books.
	d := pool.Get(64)
	d.Detach()
	if pool.InUse() != 0 {
		t.Fatalf("InUse = %d after detach, want 0", pool.InUse())
	}
}

func TestInterposeWrapsDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 10*Gbps, time.Microsecond)
	rx := &releaser{}
	l.Port(1).Attach(rx)
	seen := 0
	l.Port(1).Interpose(func(ep Endpoint) Endpoint {
		return endpointFunc(func(f *Frame) { seen++; ep.Deliver(f) })
	})
	l.Port(0).Send(NewFrame(make([]byte, 100)))
	eng.Run()
	if seen != 1 || rx.n != 1 {
		t.Fatalf("interposer saw %d, endpoint saw %d; want 1/1", seen, rx.n)
	}
}

type endpointFunc func(*Frame)

func (fn endpointFunc) Deliver(f *Frame) { fn(f) }

func TestBondSpreadsFlows(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng)
	serverMAC := wire.MAC{2, 0, 0, 0, 0, 9}
	in := NewLink(eng, 10*Gbps, time.Microsecond)
	sw.AddPort(in.Port(1))
	var members []int
	var sinks []*sink
	for i := 0; i < 4; i++ {
		l := NewLink(eng, 10*Gbps, time.Microsecond)
		members = append(members, sw.AddPort(l.Port(1)))
		rx := &sink{eng: eng}
		l.Port(0).Attach(rx)
		sinks = append(sinks, rx)
	}
	sw.Bond(serverMAC, members)
	// Many flows: build proper IPv4/TCP frames with distinct ports.
	for port := 0; port < 64; port++ {
		f := make([]byte, wire.EthHdrLen+wire.IPv4HdrLen+wire.TCPHdrLen)
		(&wire.EthHeader{Dst: serverMAC, Src: wire.MAC{1}, EtherType: wire.EtherTypeIPv4}).Marshal(f)
		iph := wire.IPv4Header{TotalLen: uint16(len(f) - wire.EthHdrLen), TTL: 64, Proto: wire.ProtoTCP,
			Src: wire.Addr4(10, 0, 0, 1), Dst: wire.Addr4(10, 0, 0, 2)}
		iph.Marshal(f[wire.EthHdrLen:])
		th := wire.TCPHeader{SrcPort: uint16(30000 + port), DstPort: 80, WScale: -1}
		th.Marshal(f[wire.EthHdrLen+wire.IPv4HdrLen:])
		in.Port(0).Send(NewFrame(f))
	}
	eng.Run()
	spread := 0
	total := 0
	for _, rx := range sinks {
		if len(rx.frames) > 0 {
			spread++
		}
		total += len(rx.frames)
	}
	if total != 64 {
		t.Fatalf("delivered %d frames, want 64", total)
	}
	if spread < 3 {
		t.Fatalf("bond used only %d of 4 members", spread)
	}
}

// TestSwitchSealFreezesFDB: the forwarding database is a
// construction-time artifact. Once traffic flows (or Seal is called
// explicitly), Learn/Bond must panic rather than mutate the FDB under
// in-flight frames, which would otherwise be forwarded by a
// partially-built table.
func TestSwitchSealFreezesFDB(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng)
	macA := wire.MAC{2, 0, 0, 0, 0, 1}
	macB := wire.MAC{2, 0, 0, 0, 0, 2}
	la := NewLink(eng, 10*Gbps, time.Microsecond)
	lb := NewLink(eng, 10*Gbps, time.Microsecond)
	pa := sw.AddPort(la.Port(1))
	pb := sw.AddPort(lb.Port(1))
	sw.Learn(macA, pa)
	sw.Learn(macB, pb)
	if sw.sealed {
		t.Fatal("switch sealed before construction finished")
	}

	// First forwarded frame seals implicitly: in-flight frames and FDB
	// construction can never interleave.
	rxB := &sink{eng: eng}
	lb.Port(0).Attach(rxB)
	la.Port(0).Send(NewFrame(frameTo(macB, macA)))
	eng.Run()
	if len(rxB.frames) != 1 {
		t.Fatal("frame not switched to B")
	}
	if !sw.sealed {
		t.Fatal("first forward did not seal the FDB")
	}

	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s after seal did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Learn", func() { sw.Learn(wire.MAC{2, 0, 0, 0, 0, 3}, pa) })
	mustPanic("Bond", func() { sw.Bond(wire.MAC{2, 0, 0, 0, 0, 4}, []int{pa, pb}) })

	// The sealed FDB still forwards.
	la.Port(0).Send(NewFrame(frameTo(macB, macA)))
	eng.Run()
	if len(rxB.frames) != 2 {
		t.Fatal("sealed switch stopped forwarding")
	}
}

// TestSwitchSealExplicit: the harness seals at Start, before any
// traffic, so misconfigured late Learn calls fail at the call site.
func TestSwitchSealExplicit(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng)
	la := NewLink(eng, 10*Gbps, time.Microsecond)
	pa := sw.AddPort(la.Port(1))
	sw.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("Learn after explicit Seal did not panic")
		}
	}()
	sw.Learn(wire.MAC{2, 0, 0, 0, 0, 9}, pa)
}
