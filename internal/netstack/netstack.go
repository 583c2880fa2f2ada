// Package netstack provides the per-core network stack instance that
// surrounds the TCP engine: Ethernet framing, ARP (the paper implemented
// its own RFC-compliant UDP, ARP and ICMP, §4.2), IPv4 with header
// checksums, a minimal UDP layer, and zero-copy frame assembly for
// transmit; and the Driver of a NIC queue pair. ICMP is not modelled: it
// counts as RxDropped, like any unknown protocol. One Stack per elastic
// thread; the ARP table is the one RCU-style structure they share (§4.4).
package netstack

import (
	"time"

	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/tcp"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// ARPTable is the host-wide ARP cache. Reads are coherence-free in the
// common case (only single-writer updates publish, mimicking RCU); the
// Reads/Updates counters make the paper's "common case reads are
// coherence-free but rare updates are not" auditable in tests.
type ARPTable struct {
	entries map[wire.IPv4]wire.MAC

	Reads   uint64
	Updates uint64
}

// NewARPTable returns an empty table.
func NewARPTable() *ARPTable {
	return &ARPTable{entries: make(map[wire.IPv4]wire.MAC)}
}

// Lookup resolves ip, reporting whether an entry exists.
func (t *ARPTable) Lookup(ip wire.IPv4) (wire.MAC, bool) {
	t.Reads++
	m, ok := t.entries[ip]
	return m, ok
}

// Learn installs or refreshes a mapping (the RCU update path).
func (t *ARPTable) Learn(ip wire.IPv4, mac wire.MAC) {
	t.Updates++
	t.entries[ip] = mac
}

// UDPHandler consumes a received datagram. The mbuf backing data follows
// the same zero-copy reference rules as TCP receive.
type UDPHandler func(src wire.IPv4, srcPort, dstPort uint16, data []byte, buf *mem.Mbuf)

// Config assembles a Stack.
type Config struct {
	LocalIP  wire.IPv4
	LocalMAC wire.MAC
	// Now returns virtual nanoseconds.
	Now func() int64
	// Wheel is the per-thread timer wheel (shared with TCP).
	Wheel *timerwheel.Wheel
	// SendFrame transmits an assembled L2 frame (to the thread's NIC TX
	// queue). The frame comes from the stack's frame pool; whoever
	// consumes it on the receiving side releases it.
	SendFrame func(frame *fabric.Frame)
	// Events receives TCP protocol events.
	Events tcp.Events
	// ARP is the host-shared ARP table.
	ARP *ARPTable
	// TCP tuning passed through to the TCP engine.
	RcvWnd int
	PortOK func(port uint16, dst wire.IPv4, dport uint16) bool
	Seed   uint64
	MinRTO time.Duration
	DelAck time.Duration
	// ExpectedConns presizes the TCP engine's connection table.
	ExpectedConns int
}

// Stack is one per-core network stack instance.
type Stack struct {
	cfg    Config
	tcp    *tcp.Stack
	udp    map[uint16]UDPHandler
	frames *fabric.FramePool

	// pendingARP holds frames awaiting resolution, per next hop.
	pendingARP map[wire.IPv4][]*fabric.Frame

	ipID uint16

	// Stats.
	RxFrames    uint64
	RxDropped   uint64
	TxFrames    uint64
	ARPRequests uint64
	ARPReplies  uint64
}

// New builds a stack and its embedded TCP engine.
func New(cfg Config) *Stack {
	if cfg.ARP == nil {
		cfg.ARP = NewARPTable()
	}
	s := &Stack{
		cfg:        cfg,
		udp:        make(map[uint16]UDPHandler),
		frames:     fabric.NewFramePool(),
		pendingARP: make(map[wire.IPv4][]*fabric.Frame),
	}
	s.tcp = tcp.NewStack(tcp.Config{
		LocalIP: cfg.LocalIP,
		Now:     cfg.Now,
		Wheel:   cfg.Wheel,
		Output:  s.outputTCP,
		Events:  cfg.Events,
		RcvWnd:  cfg.RcvWnd,
		PortOK:  cfg.PortOK,
		Seed:    cfg.Seed,
		MinRTO:  cfg.MinRTO,
		DelAck:  cfg.DelAck,

		ExpectedConns: cfg.ExpectedConns,
	})
	return s
}

// TCP returns the embedded TCP engine.
func (s *Stack) TCP() *tcp.Stack { return s.tcp }

// FramePool returns the stack's transmit frame pool, for the
// frame-conservation invariants of the fault-injection tests.
func (s *Stack) FramePool() *fabric.FramePool { return s.frames }

// Input processes one received frame held in buf (the posted receive
// mbuf the simulated DMA wrote into). The stack keeps zero-copy views
// into buf for TCP/UDP payload delivery; callers must Unref buf after
// Input returns (receivers take their own references).
func (s *Stack) Input(buf *mem.Mbuf) {
	s.RxFrames++
	data := buf.Bytes()
	// Only the EtherType decides anything here: the switch has already
	// forwarded the frame by its destination address.
	if len(data) < wire.EthHdrLen {
		s.RxDropped++
		return
	}
	switch uint16(data[12])<<8 | uint16(data[13]) {
	case wire.EtherTypeARP:
		s.inputARP(data[wire.EthHdrLen:])
	case wire.EtherTypeIPv4:
		s.inputIPv4(data[wire.EthHdrLen:], buf)
	default:
		s.RxDropped++
	}
}

func (s *Stack) inputARP(p []byte) {
	var arp wire.ARPPacket
	if arp.Unmarshal(p) != nil {
		s.RxDropped++
		return
	}
	// Learn the sender either way.
	s.cfg.ARP.Learn(arp.SenderIP, arp.SenderHW)
	s.flushPending(arp.SenderIP)
	if arp.Op == wire.ARPRequest && arp.TargetIP == s.cfg.LocalIP {
		reply := wire.ARPPacket{
			Op:       wire.ARPReply,
			SenderHW: s.cfg.LocalMAC,
			SenderIP: s.cfg.LocalIP,
			TargetHW: arp.SenderHW,
			TargetIP: arp.SenderIP,
		}
		s.ARPReplies++
		s.sendEth(arp.SenderHW, wire.EtherTypeARP, func(b []byte) { reply.Marshal(b) }, wire.ARPLen)
	}
}

func (s *Stack) inputIPv4(p []byte, buf *mem.Mbuf) {
	var iph wire.IPv4Header
	// An intact frame's header sum is pending, and verifying it cannot
	// fail (buildIPv4).
	var err error
	if buf.Intact() {
		err = iph.UnmarshalUnverified(p)
	} else {
		err = iph.Unmarshal(p)
	}
	if err != nil {
		s.RxDropped++
		return
	}
	if iph.Dst != s.cfg.LocalIP {
		s.RxDropped++
		return
	}
	// A frame carrying its payload by reference holds only the headers
	// here; the payload follows in buf (mem.Mbuf.Payload).
	end := int(iph.TotalLen) - len(buf.Payload())
	if end > len(p) || end < wire.IPv4HdrLen {
		s.RxDropped++
		return
	}
	body := p[wire.IPv4HdrLen:end]
	switch iph.Proto {
	case wire.ProtoTCP:
		s.tcp.Input(iph.Src, iph.Dst, body, buf)
	case wire.ProtoUDP:
		s.inputUDP(iph.Src, body, buf)
	default:
		s.RxDropped++
	}
}

func (s *Stack) inputUDP(src wire.IPv4, p []byte, buf *mem.Mbuf) {
	var uh wire.UDPHeader
	if uh.Unmarshal(p) != nil || int(uh.Length) > len(p) {
		s.RxDropped++
		return
	}
	h, ok := s.udp[uh.DstPort]
	if !ok {
		s.RxDropped++
		return
	}
	h(src, uh.SrcPort, uh.DstPort, p[wire.UDPHdrLen:uh.Length], buf)
}

// RegisterUDP binds a handler to a local UDP port.
func (s *Stack) RegisterUDP(port uint16, h UDPHandler) { s.udp[port] = h }

// SendUDP transmits a datagram.
func (s *Stack) SendUDP(dst wire.IPv4, srcPort, dstPort uint16, payload []byte) {
	uh := wire.UDPHeader{SrcPort: srcPort, DstPort: dstPort, Length: uint16(wire.UDPHdrLen + len(payload))}
	s.sendIPv4(dst, wire.ProtoUDP, wire.UDPHdrLen+len(payload), func(b []byte) {
		uh.Marshal(b)
		copy(b[wire.UDPHdrLen:], payload)
	})
}

// outputTCP assembles a TCP segment into a frame: the simulated DMA
// gather of the zero-copy scatter/gather transmit path. A payload lying
// in one fragment of pooled sender memory (tcp.Stack.PayloadBacking)
// rides by reference behind the headers (fabric.Frame.Carry); any other
// is copied into the frame. The checksums are offloaded, as to a NIC:
// the frame leaves intact with its IPv4 header and TCP sums pending (see
// fabric.Frame.Intact), and the receiver verifies only frames whose
// bytes were written in flight.
func (s *Stack) outputTCP(c *tcp.Conn, hdr *wire.TCPHeader, payload [][]byte) {
	n := 0
	for _, b := range payload {
		n += len(b)
	}
	segLen := hdr.Len() + n
	dst := c.Key().DstIP
	if back := s.tcp.PayloadBacking(); back != nil {
		f := s.buildIPv4(dst, wire.ProtoTCP, hdr.Len(), segLen)
		hdr.Marshal(f.Data[wire.EthHdrLen+wire.IPv4HdrLen:])
		f.Carry(payload[0], back)
		s.route(f, dst)
		return
	}
	s.sendIPv4(dst, wire.ProtoTCP, segLen, func(b []byte) {
		hdr.Marshal(b)
		off := hdr.Len()
		for _, pb := range payload {
			off += copy(b[off:], pb)
		}
	})
}

// sendIPv4 builds the IP packet around fill (which writes the transport
// body of bodyLen bytes) and transmits it, resolving ARP as needed. The
// frame buffer comes from the stack's pool; fill must write every body
// byte (pooled buffers are not zeroed).
func (s *Stack) sendIPv4(dst wire.IPv4, proto uint8, bodyLen int, fill func([]byte)) {
	f := s.buildIPv4(dst, proto, bodyLen, bodyLen)
	fill(f.Data[wire.EthHdrLen+wire.IPv4HdrLen:])
	s.route(f, dst)
}

// buildIPv4 takes a frame with room for an Ethernet header, the IPv4
// header and held bytes of an IP body of bodyLen bytes, and writes the
// IPv4 header. The body is left to the caller: the held bytes in the
// frame, the rest — a payload carried by reference — behind it. A TCP
// frame leaves intact under the sealed-frame rule (fabric.Frame), its
// IPv4 header sum pending along with the TCP sum; any other frame
// carries its header sum from here.
func (s *Stack) buildIPv4(dst wire.IPv4, proto uint8, held, bodyLen int) *fabric.Frame {
	f := s.frames.Get(wire.EthHdrLen + wire.IPv4HdrLen + held)
	s.ipID++
	iph := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HdrLen + bodyLen),
		ID:       s.ipID,
		Flags:    wire.DontFragment,
		TTL:      64,
		Proto:    proto,
		Src:      s.cfg.LocalIP,
		Dst:      dst,
	}
	f.Intact = proto == wire.ProtoTCP
	if f.Intact {
		iph.MarshalUnsummed(f.Data[wire.EthHdrLen:])
	} else {
		iph.Marshal(f.Data[wire.EthHdrLen:])
	}
	return f
}

// route sends an assembled IPv4 frame to dst, queueing it behind ARP
// resolution when the next hop is unknown.
func (s *Stack) route(f *fabric.Frame, dst wire.IPv4) {
	if mac, ok := s.cfg.ARP.Lookup(dst); ok {
		s.finishEth(f, mac)
		return
	}
	// Queue behind ARP resolution.
	s.pendingARP[dst] = append(s.pendingARP[dst], f)
	if len(s.pendingARP[dst]) == 1 {
		s.sendARPRequest(dst)
	}
}

func (s *Stack) sendARPRequest(dst wire.IPv4) {
	req := wire.ARPPacket{
		Op:       wire.ARPRequest,
		SenderHW: s.cfg.LocalMAC,
		SenderIP: s.cfg.LocalIP,
		TargetIP: dst,
	}
	s.ARPRequests++
	s.sendEth(wire.Broadcast, wire.EtherTypeARP, func(b []byte) { req.Marshal(b) }, wire.ARPLen)
}

func (s *Stack) flushPending(ip wire.IPv4) {
	frames := s.pendingARP[ip]
	if len(frames) == 0 {
		return
	}
	delete(s.pendingARP, ip)
	mac, ok := s.cfg.ARP.Lookup(ip)
	if !ok {
		return
	}
	for _, f := range frames {
		s.finishEth(f, mac)
	}
}

// finishEth writes the Ethernet header into an assembled frame and sends.
func (s *Stack) finishEth(f *fabric.Frame, dst wire.MAC) {
	eth := wire.EthHeader{Dst: dst, Src: s.cfg.LocalMAC, EtherType: wire.EtherTypeIPv4}
	eth.Marshal(f.Data)
	s.TxFrames++
	s.cfg.SendFrame(f)
}

// sendEth builds and sends a non-IP frame (ARP).
func (s *Stack) sendEth(dst wire.MAC, etherType uint16, fill func([]byte), bodyLen int) {
	f := s.frames.Get(wire.EthHdrLen + bodyLen)
	eth := wire.EthHeader{Dst: dst, Src: s.cfg.LocalMAC, EtherType: etherType}
	eth.Marshal(f.Data)
	fill(f.Data[wire.EthHdrLen:])
	s.TxFrames++
	s.cfg.SendFrame(f)
}

// Flush emits pending pure ACKs (see tcp.Stack.Flush).
func (s *Stack) Flush() { s.tcp.Flush() }
