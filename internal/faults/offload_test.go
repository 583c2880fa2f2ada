package faults

import (
	"testing"

	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/netstack"
	"ix/internal/sim"
	"ix/internal/tcp"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// recvLog records the payload a stack delivers.
type recvLog struct{ got []byte }

func (r *recvLog) Knock(*tcp.Listener, wire.FlowKey) bool { return true }
func (r *recvLog) Accepted(*tcp.Conn)                     {}
func (r *recvLog) Connected(*tcp.Conn, bool)              {}
func (r *recvLog) Recv(_ *tcp.Conn, _ *mem.Mbuf, data []byte) {
	r.got = append(r.got, data...)
}
func (r *recvLog) Sent(*tcp.Conn, int, int)   {}
func (r *recvLog) RemoteClosed(*tcp.Conn)     {}
func (r *recvLog) Dead(*tcp.Conn, tcp.Reason) {}

// stackEnd feeds delivered frames into a stack the way every receive
// loop does: an mbuf adopts the frame.
type stackEnd struct {
	s    *netstack.Stack
	pool *mem.MbufPool
	log  *recvLog
	out  []*fabric.Frame // frames the stack sent, not yet on the wire
	// arrived, when set, sees each frame before the stack does.
	arrived func(f *fabric.Frame)
}

func (e *stackEnd) Deliver(f *fabric.Frame) {
	if e.arrived != nil {
		e.arrived(f)
	}
	buf := e.pool.Alloc()
	buf.Adopt(f)
	e.s.Input(buf)
	buf.Unref()
}

// offloadPair is two stacks on one engine. Frames from a to b cross an
// injector; frames from b to a cross a clean wire.
type offloadPair struct {
	eng  *sim.Engine
	a, b *stackEnd
	in   *Injector
}

func newOffloadPair(t *testing.T) *offloadPair {
	t.Helper()
	p := &offloadPair{eng: sim.NewEngine(1)}
	arp := netstack.NewARPTable()
	mk := func(ip wire.IPv4, mac wire.MAC) *stackEnd {
		e := &stackEnd{pool: mem.NewMbufPool(mem.NewRegion(1), 0), log: &recvLog{}}
		arp.Learn(ip, mac)
		e.s = netstack.New(netstack.Config{
			LocalIP: ip, LocalMAC: mac,
			Now:       func() int64 { return int64(p.eng.Now()) },
			Wheel:     timerwheel.New(timerwheel.DefaultTick, 0),
			SendFrame: func(f *fabric.Frame) { e.out = append(e.out, f) },
			Events:    e.log,
			ARP:       arp,
		})
		return e
	}
	p.a = mk(wire.Addr4(10, 0, 0, 1), wire.MAC{2, 0, 0, 0, 0, 1})
	p.b = mk(wire.Addr4(10, 0, 0, 2), wire.MAC{2, 0, 0, 0, 0, 2})
	p.in = Wrap(p.eng, p.b, 5)
	if _, err := p.b.s.TCP().Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	return p
}

// pump moves frames until both stacks are quiet.
func (p *offloadPair) pump() {
	for i := 0; i < 100; i++ {
		ab, ba := p.a.out, p.b.out
		p.a.out, p.b.out = nil, nil
		for _, f := range ab {
			p.in.Deliver(f)
		}
		for _, f := range ba {
			p.a.Deliver(f)
		}
		p.eng.Run() // held frames: duplicates and delays
		p.a.s.Flush()
		p.b.s.Flush()
		if len(p.a.out) == 0 && len(p.b.out) == 0 {
			return
		}
	}
}

// connect opens a clean connection from a to b.
func (p *offloadPair) connect(t *testing.T) *tcp.Conn {
	t.Helper()
	c, err := p.a.s.TCP().Connect(wire.Addr4(10, 0, 0, 2), 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.pump()
	if c.State() != tcp.StateEstablished {
		t.Fatalf("connection is %v, want established", c.State())
	}
	return c
}

// TestCorruptedIntactFrameCaught: a TCP frame leaves its sender intact,
// with the checksum offloaded. Corruption in flight must clear the mark
// so the receiver verifies the frame, drops it and counts it.
func TestCorruptedIntactFrameCaught(t *testing.T) {
	p := newOffloadPair(t)
	c := p.connect(t)
	p.in.Apply(Config{CorruptP: 1})
	c.Send([]byte("hello"))
	if f := p.a.out[0]; !f.Intact {
		t.Fatal("a TCP data frame left its sender without the intact mark")
	}
	p.pump()
	tc := p.b.s.TCP()
	if p.in.stats.Corrupted != 1 || tc.BadChecksums != 1 {
		t.Fatalf("corrupted %d frames, receiver counted %d bad checksums; want 1 and 1",
			p.in.stats.Corrupted, tc.BadChecksums)
	}
	if len(p.b.log.got) != 0 {
		t.Fatalf("corrupted payload %q reached the application", p.b.log.got)
	}
}

// TestDuplicateOfIntactFrameDeliveredOnce: the duplicate is a copy of
// the frame's bytes, so the injector must write the offloaded sum before
// copying. The copy then passes verification and TCP discards it as old
// data: the payload arrives exactly once and no checksum fails.
func TestDuplicateOfIntactFrameDeliveredOnce(t *testing.T) {
	p := newOffloadPair(t)
	c := p.connect(t)
	tc := p.b.s.TCP()
	segsBefore := tc.SegsIn
	p.in.Apply(Config{DupP: 1})
	c.Send([]byte("hello"))
	p.pump()
	if p.in.stats.Duplicated != 1 {
		t.Fatalf("duplicated %d frames, want 1", p.in.stats.Duplicated)
	}
	if tc.BadChecksums != 0 {
		t.Fatalf("%d duplicates failed the checksum: the offloaded sum was not written before the copy", tc.BadChecksums)
	}
	if got := tc.SegsIn - segsBefore; got != 2 {
		t.Fatalf("receiver took %d data segments, want the original and its duplicate", got)
	}
	if string(p.b.log.got) != "hello" {
		t.Fatalf("application received %q, want %q exactly once", p.b.log.got, "hello")
	}
}

// pinCount is a Backing that counts the frames holding it.
type pinCount struct{ n int }

func (p *pinCount) Pin()   { p.n++ }
func (p *pinCount) Unpin() { p.n-- }

// TestCarriedPayloadCorruptedInFlight: the stack sends a segment from
// pooled memory by reference; corrupted in flight, the frame is caught by
// the receiver's checksum like any other, the sender's bytes — which a
// retransmission sends again — are as written, and no pin outlives the
// dropped frame.
func TestCarriedPayloadCorruptedInFlight(t *testing.T) {
	p := newOffloadPair(t)
	c := p.connect(t)
	p.in.Apply(Config{CorruptP: 1})
	msg := []byte("bytes the sender keeps until acknowledged")
	var back pinCount
	c.Sendv([][]byte{msg}, []fabric.Backing{&back})
	if f := p.a.out[0]; f.Payload == nil || back.n != 1 {
		t.Fatalf("the data frame carries payload %q with %d pins; want it by reference, 1 pin", f.Payload, back.n)
	}
	p.pump()
	if p.in.stats.Corrupted != 1 || p.b.s.TCP().BadChecksums != 1 {
		t.Fatalf("corrupted %d, bad checksums %d; want 1 and 1", p.in.stats.Corrupted, p.b.s.TCP().BadChecksums)
	}
	if string(msg) != "bytes the sender keeps until acknowledged" || back.n != 0 {
		t.Fatalf("sender's bytes %q, %d pins left", msg, back.n)
	}
}

// TestDuplicateOfCarriedPayloadDeliveredOnce: the duplicate of a frame
// carrying its payload by reference copies the carried bytes too, and
// neither copy leaves a pin behind.
func TestDuplicateOfCarriedPayloadDeliveredOnce(t *testing.T) {
	p := newOffloadPair(t)
	c := p.connect(t)
	p.in.Apply(Config{DupP: 1})
	var back pinCount
	c.Sendv([][]byte{[]byte("hello")}, []fabric.Backing{&back})
	p.pump()
	if p.in.stats.Duplicated != 1 || p.b.s.TCP().BadChecksums != 0 {
		t.Fatalf("duplicated %d, bad checksums %d; want 1 and 0", p.in.stats.Duplicated, p.b.s.TCP().BadChecksums)
	}
	if string(p.b.log.got) != "hello" || back.n != 0 {
		t.Fatalf("application received %q with %d pins left; want %q once and none", p.b.log.got, back.n, "hello")
	}
}

// ipv4SumOK reports whether the frame's IPv4 header carries a verifying
// checksum.
func ipv4SumOK(f *fabric.Frame) bool {
	return wire.Checksum(f.Data[wire.EthHdrLen:wire.EthHdrLen+wire.IPv4HdrLen]) == 0
}

// TestIPv4HeaderSumUnderSealedFrameRule: an intact TCP frame leaves its
// sender with the IPv4 header sum pending, like its TCP sum. A frame
// corrupted or duplicated in flight is no longer intact, and it arrives
// with a verifying header sum, which the injector wrote before the
// write or the copy; the receiver drops nothing at IPv4. Frames that are
// never intact — UDP, ARP — carry what their sender computed.
func TestIPv4HeaderSumUnderSealedFrameRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"corrupted", Config{CorruptP: 1}}, {"duplicated", Config{DupP: 1}}} {
		p := newOffloadPair(t)
		c := p.connect(t)
		written := 0
		p.b.arrived = func(f *fabric.Frame) {
			if f.Intact {
				return
			}
			written++
			if !ipv4SumOK(f) {
				t.Errorf("%s: a frame written in flight arrived without a verifying IPv4 header sum", tc.name)
			}
		}
		p.in.Apply(tc.cfg)
		c.Send([]byte("hello"))
		f := p.a.out[0]
		if !f.Intact {
			t.Fatalf("%s: a TCP data frame left its sender without the intact mark", tc.name)
		}
		if sum := f.Data[wire.EthHdrLen+10 : wire.EthHdrLen+12]; sum[0] != 0 || sum[1] != 0 {
			t.Fatalf("%s: an intact frame left its sender with IPv4 header sum %#x, want it pending (zero)", tc.name, sum)
		}
		p.pump()
		if written != 1 {
			t.Fatalf("%s: %d frames arrived no longer intact, want 1", tc.name, written)
		}
		if d := p.b.s.RxDropped; d != 0 {
			t.Fatalf("%s: receiver dropped %d frames at IPv4", tc.name, d)
		}
	}

	p := newOffloadPair(t)
	p.a.s.SendUDP(wire.Addr4(10, 0, 0, 2), 5000, 6000, []byte("datagram"))
	p.a.s.SendUDP(wire.Addr4(10, 0, 0, 9), 5000, 6000, []byte("unresolved")) // queued behind ARP
	if len(p.a.out) != 2 {
		t.Fatalf("sender emitted %d frames, want a UDP datagram and an ARP request", len(p.a.out))
	}
	udp, arp := p.a.out[0], p.a.out[1]
	if udp.Intact || !ipv4SumOK(udp) {
		t.Fatalf("UDP frame: intact %v, header sum verifies %v; want false, true", udp.Intact, ipv4SumOK(udp))
	}
	if arp.Intact || uint16(arp.Data[12])<<8|uint16(arp.Data[13]) != wire.EtherTypeARP {
		t.Fatalf("second frame: intact %v, ethertype %#x; want an ARP request, not intact", arp.Intact, arp.Data[12:14])
	}
}
