// Package netstack provides the per-core network stack instance that
// surrounds the TCP engine: Ethernet framing, ARP (the paper implemented
// its own RFC-compliant UDP, ARP and ICMP, §4.2), IPv4 with header
// checksums, a minimal UDP layer, and zero-copy frame assembly for
// transmit. ICMP is not modelled (no experiment sends it): an ICMP packet
// counts as RxDropped, like any other unknown protocol. One Stack per elastic thread; the ARP table is the single
// RCU-style shared structure between threads on a host (§4.4).
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
// common case (single-writer updates bump a version, mimicking RCU
// publication); the Reads/Updates counters make the paper's "common case
// reads are coherence-free but rare updates are not" auditable in tests.
type ARPTable struct {
	entries map[wire.IPv4]wire.MAC
	version uint64

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
	t.version++
	t.entries[ip] = mac
}

// Version returns the update generation, used by tests to verify the
// read path does not publish.
func (t *ARPTable) Version() uint64 { return t.version }

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
	RcvWnd     int
	MSS        int
	PortOK     func(port uint16, dst wire.IPv4, dport uint16) bool
	Seed       uint64
	MinRTO     time.Duration
	MaxRexmits int
	TimeWait   time.Duration
	DelAck     time.Duration
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
	RxARP       uint64
	RxUDP       uint64
	RxTCP       uint64
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
		LocalIP:    cfg.LocalIP,
		Now:        cfg.Now,
		Wheel:      cfg.Wheel,
		Output:     s.outputTCP,
		Events:     cfg.Events,
		RcvWnd:     cfg.RcvWnd,
		MSS:        cfg.MSS,
		PortOK:     cfg.PortOK,
		Seed:       cfg.Seed,
		MinRTO:     cfg.MinRTO,
		MaxRexmits: cfg.MaxRexmits,
		TimeWait:   cfg.TimeWait,
		DelAck:     cfg.DelAck,

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
	var eth wire.EthHeader
	if err := eth.Unmarshal(data); err != nil {
		s.RxDropped++
		return
	}
	switch eth.EtherType {
	case wire.EtherTypeARP:
		s.RxARP++
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
	if err := iph.Unmarshal(p); err != nil {
		s.RxDropped++
		return
	}
	if iph.Dst != s.cfg.LocalIP {
		s.RxDropped++
		return
	}
	if int(iph.TotalLen) > len(p) {
		s.RxDropped++
		return
	}
	body := p[wire.IPv4HdrLen:iph.TotalLen]
	switch iph.Proto {
	case wire.ProtoTCP:
		s.RxTCP++
		s.tcp.Input(iph.Src, iph.Dst, body, buf)
	case wire.ProtoUDP:
		s.RxUDP++
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

// outputTCP assembles a TCP segment into a frame (the simulated DMA
// gather of the zero-copy scatter/gather transmit path).
func (s *Stack) outputTCP(c *tcp.Conn, hdr *wire.TCPHeader, payload [][]byte) {
	n := 0
	for _, b := range payload {
		n += len(b)
	}
	segLen := hdr.Len() + n
	dst := c.Key().DstIP
	s.sendIPv4(dst, wire.ProtoTCP, segLen, func(b []byte) {
		hdr.Marshal(b)
		off := hdr.Len()
		for _, pb := range payload {
			off += copy(b[off:], pb)
		}
		wire.SetTCPChecksum(s.cfg.LocalIP, dst, b[:segLen])
	})
}

// sendIPv4 builds the IP packet around fill (which writes the transport
// body of bodyLen bytes) and transmits it, resolving ARP as needed. The
// frame buffer comes from the stack's pool; fill must write every body
// byte (pooled buffers are not zeroed).
func (s *Stack) sendIPv4(dst wire.IPv4, proto uint8, bodyLen int, fill func([]byte)) {
	total := wire.EthHdrLen + wire.IPv4HdrLen + bodyLen
	f := s.frames.Get(total)
	frame := f.Data
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
	iph.Marshal(frame[wire.EthHdrLen:])
	fill(frame[wire.EthHdrLen+wire.IPv4HdrLen:])
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
