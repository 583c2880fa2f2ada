// Package fabric models the experiment network: full-duplex Ethernet links
// with bandwidth serialization and propagation delay, and a cut-through
// switch (the paper's Quanta/Cumulus 48x10GbE with a Broadcom Trident+
// ASIC) including LACP-style bond groups that hash on L3+L4, which is how
// the 4x10GbE server configuration is built (§5.1).
//
// Frames are reference-carrying objects: a sender allocates one from its
// FramePool, the same object travels every hop (host → switch → host), and
// the final consumer calls Release to hand the buffer back to the
// originating pool. On the steady-state path no per-frame memory is
// allocated. A TCP frame may carry its payload by reference into the
// sender's pooled transmit memory rather than in its own buffer (Carry):
// the simulated NIC's DMA gather is a charge in the cost model, not a
// reason to move host bytes.
package fabric

import (
	"fmt"
	"time"

	"ix/internal/sim"
	"ix/internal/wire"
)

// Gbps expresses link bandwidth.
const Gbps = 1e9

// Common datacenter timing constants (§2.2 of the paper).
const (
	// SwitchLatency is a cut-through crossing (a few hundred ns).
	SwitchLatency = 300 * time.Nanosecond
	// PropDelay covers ~100 m of fiber within the datacenter plus PHY.
	PropDelay = 500 * time.Nanosecond
	// NICLatency is the one-way latency through a 10 GbE NIC (the paper
	// quotes 3 µs across a *pair* of NICs, so 1.5 µs each).
	NICLatency = 1500 * time.Nanosecond
)

// FrameCap is the buffer capacity of pooled frames: a full MTU frame with
// L2 framing and slack. Larger frames fall back to one-off allocations.
const FrameCap = 1600

// smallFrameCap is the buffer capacity of the pool's small frames: room
// for every header — all a frame carrying its payload by reference holds
// — and a short payload, such as a 64 B RPC's.
const smallFrameCap = 256

// A Frame is a packet in flight with its arrival timestamp metadata.
// Frames allocated from a FramePool are recycled: whoever consumes the
// frame (receiving stack, dropping queue, flooding switch) must call
// Release exactly once.
//
// The sealed-frame rule: a TCP frame leaves its sender Intact, with the
// IPv4 header and TCP checksums offloaded. Anything that writes or
// copies an intact frame's bytes in flight calls MaterializeChecksum
// first, so the bytes it changes or hands on carry the sums the sender's
// NIC would have put on the wire.
type Frame struct {
	// Data is the frame's own bytes: every header and, unless Payload
	// carries it, the payload.
	Data []byte
	// Payload, when non-nil, is the TCP payload carried by reference into
	// the sender's pooled memory (Carry): on the wire the frame is Data
	// followed by Payload. Only an intact frame carries one; whoever
	// writes a frame's bytes takes the payload into Data first (Own).
	Payload []byte

	// Intact marks a TCP frame whose checksums are pending: the sender
	// left the IPv4 header and TCP checksum fields zero and offloaded the
	// sums, and no one has written the frame's bytes since. Verifying an
	// intact frame cannot fail, so a receiver may skip it. Get clears the
	// mark.
	Intact bool

	buf  []byte  // full-capacity backing storage of pooled frames
	back Backing // what Payload points into, pinned until Release
	pool *FramePool
	free bool
}

// A Backing is pooled sender memory a frame's payload can point into: a
// TX arena chunk (mem.TxChunk). Its owner releases it once TCP
// has dropped every reference — at the cumulative ACK — but a frame can
// outlive that ACK: a retransmitted original still queued in a receive
// ring, a receiver holding the mbuf. So every frame carrying bytes of a
// backing pins it, and a backing released while pinned goes back to its
// pool only at the last Unpin.
type Backing interface {
	Pin()
	Unpin()
}

// Len returns the frame's L2 length: Data and the payload it carries.
func (f *Frame) Len() int { return len(f.Data) + len(f.Payload) }

// Carry makes payload the frame's payload by reference: it follows Data
// on the wire, and back — the pooled memory it lies in — stays pinned
// until the frame is released. The frame must be intact, and Data must
// hold exactly the headers.
//
//ix:hotpath
func (f *Frame) Carry(payload []byte, back Backing) {
	back.Pin()
	f.Payload, f.back = payload, back
}

// Own takes a payload carried by reference into the frame's own buffer
// and unpins its backing, so the frame's bytes may be written without
// touching the sender's. A no-op for a frame that carries none.
func (f *Frame) Own() {
	if f.back == nil {
		return
	}
	f.Data = append(f.Data, f.Payload...)
	f.unpin()
}

// unpin drops the frame's reference into its sender's memory.
func (f *Frame) unpin() {
	f.back.Unpin()
	f.Payload, f.back = nil, nil
}

// AppendBytes appends the frame's wire bytes (Data, then the payload it
// carries) to b.
func (f *Frame) AppendBytes(b []byte) []byte {
	return append(append(b, f.Data...), f.Payload...)
}

// MaterializeChecksum writes an intact frame's pending checksums into its
// headers: the IPv4 header sum, then the TCP sum computed from that
// header. The frame stays intact: its bytes are still the sender's, now
// with the sums in place. A frame that is not intact already carries its
// sums.
func (f *Frame) MaterializeChecksum() {
	if !f.Intact {
		return
	}
	ip := f.Data[wire.EthHdrLen:]
	var h wire.IPv4Header
	if h.UnmarshalUnverified(ip) != nil {
		return // not a header a stack built: nothing was offloaded
	}
	wire.SetIPv4Checksum(ip)
	wire.SetTCPChecksumv(h.Src, h.Dst, ip[wire.IPv4HdrLen:int(h.TotalLen)-len(f.Payload)], f.Payload)
}

// NewFrame wraps data in an unpooled frame (tests, broadcast replication).
// Release on an unpooled frame is a no-op.
func NewFrame(data []byte) *Frame { return &Frame{Data: data} }

// Detach permanently removes a pooled frame from its pool, balancing the
// in-use accounting. Broadcast replication aliases the frame's bytes in
// unpooled replicas, so the buffer can never safely be recycled.
func (f *Frame) Detach() {
	if f.pool == nil {
		return
	}
	f.pool.inUse--
	f.pool = nil
}

// Release returns a pooled frame's buffer to its originating pool. It must
// be called exactly once by the frame's final consumer; double release
// panics (the moral equivalent of a double free).
func (f *Frame) Release() {
	if f == nil {
		return
	}
	// The double-release check precedes the pool check so oversized
	// frames (detached from the pool on their first release) still trip
	// the panic; unpooled NewFrame frames never set free and keep their
	// documented no-op behaviour.
	if f.free {
		panic("fabric: frame double release")
	}
	if f.back != nil {
		f.unpin()
	}
	if f.pool == nil {
		return
	}
	f.free = true
	p := f.pool
	p.inUse--
	switch cap(f.buf) {
	case 0:
		// Oversized one-off: accounted, but not recycled.
		f.pool = nil
	case smallFrameCap:
		p.small = append(p.small, f)
	default:
		p.full = append(p.full, f)
	}
}

// smallFrame and fullFrame are a pooled frame and its buffer in one
// allocation: the bytes every hop reads first lie right behind the
// frame's fields.
type (
	smallFrame struct {
		Frame
		b [smallFrameCap]byte
	}
	fullFrame struct {
		Frame
		b [FrameCap]byte
	}
)

// A FramePool recycles frame buffers for one sender (a network stack
// instance), in two sizes: FrameCap, and small frames for those that hold
// only headers or a short payload.
type FramePool struct {
	full, small []*Frame
	inUse       int

	// Stats: Gets counts allocations served, News counts fresh buffers
	// (pool misses and oversized frames).
	Gets, News uint64
}

// InUse reports frames allocated from the pool and not yet released —
// the frame-conservation invariant the fault-injection tests assert:
// whatever drops, duplicates or delays frames, a quiesced cluster must
// drain every pool back to zero.
func (p *FramePool) InUse() int { return p.inUse }

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool { return &FramePool{} }

// Get returns a frame with an n-byte Data slice. The bytes are NOT zeroed:
// callers are expected to write the full frame (every producer in this
// repository marshals headers and payload over the entire length).
func (p *FramePool) Get(n int) *Frame {
	p.Gets++
	p.inUse++
	if n > FrameCap {
		p.News++
		return &Frame{Data: make([]byte, n), pool: p}
	}
	list, size := &p.full, FrameCap
	if n <= smallFrameCap {
		list, size = &p.small, smallFrameCap
	}
	if ln := len(*list); ln > 0 {
		f := (*list)[ln-1]
		(*list)[ln-1] = nil
		*list = (*list)[:ln-1]
		f.free = false
		f.Intact = false
		f.Data = f.buf[:n]
		return f
	}
	p.News++
	var f *Frame
	if size == smallFrameCap {
		k := &smallFrame{}
		f, k.buf = &k.Frame, k.b[:]
	} else {
		k := &fullFrame{}
		f, k.buf = &k.Frame, k.b[:]
	}
	f.pool = p
	f.Data = f.buf[:n]
	return f
}

// An Endpoint consumes frames delivered by a link.
type Endpoint interface {
	// Deliver is invoked at the frame's arrival time. The endpoint takes
	// ownership of the frame and must eventually Release it.
	Deliver(f *Frame)
}

// A Port is one side of a link: frames are transmitted by calling Send and
// received through the attached Endpoint.
type Port struct {
	link *Link
	side int
	ep   Endpoint

	busyUntil sim.Time // transmit serialization

	// stream holds the frames sent through this port that have not yet
	// arrived at the peer. Arrival order is send order (one serializer,
	// one constant latency), so only the head has an engine event; each
	// frame keeps the sequence number it reserved at Send, so deliveries
	// fire exactly where per-frame events would have.
	stream flightRing

	// txBuffer, when positive, bounds the transmit queue in bytes: a
	// shallow-buffer egress (the switch ASIC's per-port share) that
	// tail-drops under incast fan-in. Zero means unbounded (the
	// default, matching the drop-free fabric of the figure benchmarks).
	txBuffer int

	// TxFrames counts transmitted frames; TxDropped counts frames
	// tail-dropped by the bounded transmit buffer.
	TxFrames  uint64
	TxDropped uint64
}

// Attach sets the endpoint that receives frames arriving at this port.
func (p *Port) Attach(ep Endpoint) { p.ep = ep }

// Interpose wraps the port's currently attached endpoint — the hook the
// fault-injection layer uses to interpose on frame delivery without the
// port or its endpoint knowing. Must be called after Attach.
func (p *Port) Interpose(wrap func(Endpoint) Endpoint) { p.ep = wrap(p.ep) }

// SetTxBuffer bounds the port's transmit queue to n bytes of wire
// occupancy (0 = unbounded). Frames arriving while the queue holds n or
// more queued wire bytes are tail-dropped and released.
func (p *Port) SetTxBuffer(n int) { p.txBuffer = n }

// queuedBytes converts the pending serialization backlog to wire bytes.
func (p *Port) queuedBytes(now sim.Time) int {
	if p.busyUntil <= now {
		return 0
	}
	return int(float64(p.busyUntil-now) / 1e9 * p.link.bps / 8)
}

// Peer returns the port at the other end of the link.
func (p *Port) Peer() *Port { return &p.link.ports[1-p.side] }

// flight is one frame on the wire: its arrival time at the peer and the
// engine sequence number it reserved when it was sent.
type flight struct {
	f   *Frame
	at  sim.Time
	seq uint64
}

// flightRing is a circular FIFO of frames in flight. A port that always
// has a frame on the wire never drains it, so it wraps rather than
// appending behind a dead prefix; its backing grows only with the
// port's peak backlog and is kept.
type flightRing struct {
	buf  []flight // len is zero or a power of two
	head int
	n    int
}

func (r *flightRing) push(x flight) {
	if r.n == len(r.buf) {
		grown := make([]flight, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

func (r *flightRing) front() *flight { return &r.buf[r.head] }

func (r *flightRing) pop() *Frame {
	f := r.buf[r.head].f
	r.buf[r.head] = flight{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return f
}

// deliverHead is the arrival trampoline of a port's stream: the head
// frame reaches the peer, and the next frame's event is queued under the
// sequence number it reserved at Send.
func deliverHead(a any) {
	p := a.(*Port)
	f := p.stream.pop()
	if p.stream.n > 0 {
		next := p.stream.front()
		p.link.eng.CallReserved(next.at, next.seq, deliverHead, p)
	}
	if dst := p.Peer(); dst.ep != nil {
		dst.ep.Deliver(f)
	} else {
		f.Release()
	}
}

// Send transmits the frame out of the port. Serialization at the link rate
// and propagation delay determine the arrival time at the peer endpoint.
// The caller hands over ownership of the frame (the simulated DMA engine
// has already copied out of mbufs at the NIC).
func (p *Port) Send(f *Frame) { p.sendAt(f, p.link.eng.Now()) }

// sendAt transmits f as Send called at time at (now or later) would: the
// switch's cut-through hop, which decides at arrival what the egress
// does SwitchLatency later. It is exact as long as every sendAt to a
// port comes in order of at — true of a switch, whose every frame waits
// the same latency — because the port's state at at is then the state
// it has now.
func (p *Port) sendAt(f *Frame, at sim.Time) {
	l := p.link
	n := f.Len()
	if p.txBuffer > 0 && p.queuedBytes(at)+wire.WireLen(n) > p.txBuffer {
		// Shallow egress buffer full: tail drop at the switch port,
		// exactly the incast failure mode (§5, 16 µs RTO discussion).
		p.TxDropped++
		f.Release()
		return
	}
	start := at
	if p.busyUntil > start {
		start = p.busyUntil
	}
	ser := l.serialize(n)
	depart := start.Add(ser)
	p.busyUntil = depart
	p.TxFrames++
	arrive := depart.Add(l.latency)
	seq := l.eng.ReserveSeq()
	p.stream.push(flight{f: f, at: arrive, seq: seq})
	if p.stream.n == 1 {
		l.eng.CallReserved(arrive, seq, deliverHead, p)
	}
}

// Busy returns the time until which the port's transmit side is
// serializing already-queued frames.
func (p *Port) Busy() sim.Time { return p.busyUntil }

// A Link is a full-duplex point-to-point cable.
type Link struct {
	eng     *sim.Engine
	bps     float64
	latency time.Duration
	ports   [2]Port
}

// NewLink creates a link with the given bandwidth (bits/s) and one-way
// propagation latency.
func NewLink(eng *sim.Engine, bps float64, latency time.Duration) *Link {
	l := &Link{eng: eng, bps: bps, latency: latency}
	l.ports[0] = Port{link: l, side: 0}
	l.ports[1] = Port{link: l, side: 1}
	return l
}

// Port returns side i (0 or 1) of the link.
func (l *Link) Port(i int) *Port { return &l.ports[i] }

// serialize returns the wire time of a frame of n L2 bytes, including
// Ethernet preamble/FCS/IFG overhead and minimum-frame padding.
func (l *Link) serialize(n int) time.Duration {
	bits := float64(wire.WireLen(n) * 8)
	return time.Duration(bits / l.bps * 1e9)
}

// A Switch is a store-of-nothing cut-through L2 switch with static MAC
// learning and bond groups. Ports are link endpoints.
type Switch struct {
	eng     *sim.Engine
	latency time.Duration
	ports   []*switchPort
	fdb     map[wire.MAC]int // MAC -> port index
	bonds   map[wire.MAC][]int

	// sealed freezes the FDB and bond tables. Topology is static in
	// every experiment, so learning belongs to cluster construction; the
	// seal (explicit via Seal, or implicit on the first forwarded frame)
	// guarantees no frame can ever observe a partially built table.
	sealed bool

	// Forwarded counts frames switched.
	Forwarded uint64
	// Flooded counts frames with unknown destination (dropped: the
	// benchmark topologies never rely on flooding).
	Flooded uint64
}

type switchPort struct {
	sw   *Switch
	idx  int
	port *Port
}

// Deliver implements Endpoint: a frame arriving on a switch port leaves
// its egress port after the cut-through latency.
func (sp *switchPort) Deliver(f *Frame) {
	sp.sw.forward(sp.idx, f)
}

// NewSwitch creates a switch.
func NewSwitch(eng *sim.Engine) *Switch {
	return &Switch{eng: eng, latency: SwitchLatency, fdb: make(map[wire.MAC]int), bonds: make(map[wire.MAC][]int)}
}

// AddPort connects one side of a link to the switch and returns the port
// index.
func (s *Switch) AddPort(p *Port) int {
	idx := len(s.ports)
	sp := &switchPort{sw: s, idx: idx, port: p}
	p.Attach(sp)
	s.ports = append(s.ports, sp)
	return idx
}

// Learn installs a static FDB entry: frames for mac leave through port
// index idx. Learning is a construction-time operation: once the switch
// is sealed, Learn panics.
func (s *Switch) Learn(mac wire.MAC, idx int) {
	if s.sealed {
		panic("fabric: Learn on a sealed switch (MAC learning is construction-time only)")
	}
	if idx < 0 || idx >= len(s.ports) {
		panic(fmt.Sprintf("fabric: bad port index %d", idx))
	}
	s.fdb[mac] = idx
}

// Bond declares that frames for mac are distributed across the given port
// indices by an L3+L4 hash (the switch-side half of the paper's 4x10GbE
// configuration). Construction-time only, like Learn.
func (s *Switch) Bond(mac wire.MAC, idxs []int) {
	if s.sealed {
		panic("fabric: Bond on a sealed switch (bond setup is construction-time only)")
	}
	s.bonds[mac] = append([]int(nil), idxs...)
}

// Seal freezes the FDB and bond tables. The harness seals at cluster
// start; the first forwarded frame seals implicitly as a backstop, so a
// frame already in flight during construction forwards against the
// complete, frozen topology or trips the construction-time panic — never
// a partial table.
func (s *Switch) Seal() { s.sealed = true }

// forward switches a frame arriving on port in. Every frame pays the same
// SwitchLatency, so the egress send is made now for the instant the
// latency ends (Port.sendAt) instead of as an engine event of its own:
// the departures, arrivals and tail drops are the ones that event would
// have produced.
func (s *Switch) forward(in int, f *Frame) {
	s.sealed = true // implicit seal: forwarding freezes the topology
	var eth wire.EthHeader
	if err := eth.Unmarshal(f.Data); err != nil {
		f.Release()
		return
	}
	at := s.eng.Now().Add(s.latency)
	out := -1
	if members, ok := s.bonds[eth.Dst]; ok && len(members) > 0 {
		out = members[int(l3l4Hash(f.Data))%len(members)]
	} else if idx, ok := s.fdb[eth.Dst]; ok {
		out = idx
	} else if eth.Dst == wire.Broadcast {
		// Broadcast (ARP): replicate to all ports except ingress. The
		// replicas are unpooled frames sharing the payload bytes, so the
		// original is detached from its pool (rare control-plane path).
		f.Detach()
		for i, sp := range s.ports {
			if i != in {
				sp.port.sendAt(NewFrame(f.Data), at)
			}
		}
		s.Forwarded++
		return
	}
	if out < 0 || out == in {
		s.Flooded++
		f.Release()
		return
	}
	s.Forwarded++
	s.ports[out].port.sendAt(f, at)
}

// l3l4Hash is the bond-member selection hash: a cheap fold over the IPv4
// addresses and transport ports, matching "bonded by the switch with an
// L3+L4 hash" (§5.1).
func l3l4Hash(frame []byte) uint32 {
	if len(frame) < wire.EthHdrLen+wire.IPv4HdrLen {
		return 0
	}
	var eth wire.EthHeader
	_ = eth.Unmarshal(frame)
	if eth.EtherType != wire.EtherTypeIPv4 {
		return 0
	}
	ip := frame[wire.EthHdrLen:]
	var h uint32
	for _, b := range ip[12:20] { // src+dst IP
		h = h*31 + uint32(b)
	}
	proto := ip[9]
	if proto == wire.ProtoTCP || proto == wire.ProtoUDP {
		ihl := int(ip[0]&0xf) * 4
		if len(ip) >= ihl+4 {
			for _, b := range ip[ihl : ihl+4] { // ports
				h = h*31 + uint32(b)
			}
		}
	}
	return h
}
