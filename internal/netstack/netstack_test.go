package netstack

import (
	"testing"

	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/tcp"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

type nullEvents struct{ recvd []byte }

func (n *nullEvents) Knock(l *tcp.Listener, key wire.FlowKey) bool { return true }
func (n *nullEvents) Accepted(c *tcp.Conn)                         {}
func (n *nullEvents) Connected(c *tcp.Conn, ok bool)               {}
func (n *nullEvents) Recv(c *tcp.Conn, buf *mem.Mbuf, data []byte) {
	n.recvd = append(n.recvd, data...)
}
func (n *nullEvents) Sent(c *tcp.Conn, acked, released int) {}
func (n *nullEvents) RemoteClosed(c *tcp.Conn)              {}
func (n *nullEvents) Dead(c *tcp.Conn, r tcp.Reason)        {}

type host struct {
	s      *Stack
	out    []*fabric.Frame
	pool   *mem.MbufPool
	events *nullEvents
}

func newHost(now *int64, ip wire.IPv4, mac wire.MAC, arp *ARPTable) *host {
	h := &host{pool: mem.NewMbufPool(mem.NewRegion(4), 0), events: &nullEvents{}}
	h.s = New(Config{
		LocalIP:   ip,
		LocalMAC:  mac,
		Now:       func() int64 { return *now },
		Wheel:     timerwheel.New(timerwheel.DefaultTick, 0),
		SendFrame: func(f *fabric.Frame) { h.out = append(h.out, f) },
		Events:    h.events,
		ARP:       arp,
	})
	return h
}

// exchange delivers frames between two hosts until quiescent.
func exchange(a, b *host) {
	for i := 0; i < 50; i++ {
		moved := false
		for _, f := range a.out {
			buf := b.pool.Alloc()
			buf.Adopt(f)
			b.s.Input(buf)
			buf.Unref()
			moved = true
		}
		a.out = nil
		for _, f := range b.out {
			buf := a.pool.Alloc()
			buf.Adopt(f)
			a.s.Input(buf)
			buf.Unref()
			moved = true
		}
		b.out = nil
		a.s.Flush()
		b.s.Flush()
		if !moved && len(a.out) == 0 && len(b.out) == 0 {
			return
		}
	}
}

func TestARPResolution(t *testing.T) {
	now := int64(0)
	ipA, ipB := wire.Addr4(10, 0, 0, 1), wire.Addr4(10, 0, 0, 2)
	a := newHost(&now, ipA, wire.MAC{2, 0, 0, 0, 0, 1}, nil)
	b := newHost(&now, ipB, wire.MAC{2, 0, 0, 0, 0, 2}, nil)
	// a pings b with no ARP entry: must queue behind an ARP request.
	a.s.SendUDP(ipB, 1000, 2000, []byte("queued"))
	if a.s.ARPRequests != 1 {
		t.Fatalf("arp requests = %d", a.s.ARPRequests)
	}
	got := []byte(nil)
	b.s.RegisterUDP(2000, func(src wire.IPv4, sp, dp uint16, data []byte, buf *mem.Mbuf) {
		got = append([]byte(nil), data...)
	})
	exchange(a, b)
	if string(got) != "queued" {
		t.Fatalf("udp payload after ARP resolution = %q", got)
	}
	if b.s.ARPReplies != 1 {
		t.Fatalf("b sent %d arp replies", b.s.ARPReplies)
	}
	// Second send uses the cached entry: no new request.
	a.s.SendUDP(ipB, 1000, 2000, []byte("fast"))
	if a.s.ARPRequests != 1 {
		t.Fatal("ARP cache not used")
	}
}

func TestTCPOverNetstack(t *testing.T) {
	now := int64(0)
	arp := NewARPTable()
	ipA, ipB := wire.Addr4(10, 0, 0, 1), wire.Addr4(10, 0, 0, 2)
	macA, macB := wire.MAC{2, 0, 0, 0, 0, 1}, wire.MAC{2, 0, 0, 0, 0, 2}
	a := newHost(&now, ipA, macA, arp)
	b := newHost(&now, ipB, macB, arp)
	arp.Learn(ipA, macA)
	arp.Learn(ipB, macB)
	if _, err := b.s.TCP().Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	c, err := a.s.TCP().Connect(ipB, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	exchange(a, b)
	if c.State() != tcp.StateEstablished {
		t.Fatalf("state = %v", c.State())
	}
	c.Send([]byte("through ethernet and ip"))
	exchange(a, b)
	if string(b.events.recvd) != "through ethernet and ip" {
		t.Fatalf("b received %q", b.events.recvd)
	}
}

func TestARPTableRCUStats(t *testing.T) {
	arp := NewARPTable()
	arp.Learn(wire.Addr4(1, 1, 1, 1), wire.MAC{1})
	v := arp.Updates
	for i := 0; i < 100; i++ {
		arp.Lookup(wire.Addr4(1, 1, 1, 1))
	}
	if arp.Updates != v {
		t.Fatal("reads published a new version (should be coherence-free)")
	}
	if arp.Reads != 100 {
		t.Fatalf("reads = %d", arp.Reads)
	}
	arp.Learn(wire.Addr4(1, 1, 1, 2), wire.MAC{2})
	if arp.Updates != v+1 {
		t.Fatal("update accounting wrong")
	}
}

func TestDropsCounted(t *testing.T) {
	now := int64(0)
	h := newHost(&now, wire.Addr4(10, 0, 0, 1), wire.MAC{2, 0, 0, 0, 0, 1}, nil)
	// Not-for-us IP packet.
	frame := make([]byte, wire.EthHdrLen+wire.IPv4HdrLen)
	(&wire.EthHeader{Dst: wire.MAC{2, 0, 0, 0, 0, 1}, EtherType: wire.EtherTypeIPv4}).Marshal(frame)
	iph := wire.IPv4Header{TotalLen: wire.IPv4HdrLen, TTL: 64, Proto: wire.ProtoTCP,
		Src: wire.Addr4(9, 9, 9, 9), Dst: wire.Addr4(8, 8, 8, 8)}
	iph.Marshal(frame[wire.EthHdrLen:])
	buf := h.pool.Alloc()
	buf.SetData(frame)
	h.s.Input(buf)
	buf.Unref()
	if h.s.RxDropped != 1 {
		t.Fatalf("dropped = %d", h.s.RxDropped)
	}
	// An ICMP packet for us: the stack does not model ICMP, so it is
	// dropped like any other unknown protocol.
	iph.Proto, iph.Dst = 1, wire.Addr4(10, 0, 0, 1)
	iph.Marshal(frame[wire.EthHdrLen:])
	buf = h.pool.Alloc()
	buf.SetData(frame)
	h.s.Input(buf)
	buf.Unref()
	if h.s.RxDropped != 2 || len(h.out) != 0 {
		t.Fatalf("ICMP: dropped = %d, frames sent = %d", h.s.RxDropped, len(h.out))
	}
}
