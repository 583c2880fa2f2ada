// Package nicsim models a multi-queue 10 GbE NIC in the mold of the Intel
// 82599 that IX requires: per-queue RX/TX descriptor rings, receive-side
// scaling via a real Toeplitz hash and a 128-entry redirection table
// (RETA), interrupt moderation (ITR), and the PCIe descriptor-doorbell
// behaviour whose coalescing the paper discusses in §6. A NIC may own
// several physical ports (the bonded 4x10GbE server configuration);
// transmit picks the member port by flow hash so a flow's frames stay
// ordered.
package nicsim

import (
	"time"

	"ix/internal/fabric"
	"ix/internal/sim"
	"ix/internal/wire"
)

// RetaSize is the 82599's redirection table size.
const RetaSize = 128

// DefaultRingSize is the default RX/TX descriptor ring depth.
const DefaultRingSize = 512

// Config parameterizes a NIC.
type Config struct {
	// Queues is the number of RX/TX queue pairs (one per hardware
	// thread in IX).
	Queues int
	// RingSize is the descriptor ring depth per queue.
	RingSize int
	// ITR is the interrupt throttle interval: a queue in interrupt mode
	// raises at most one interrupt per ITR. Zero means no moderation.
	ITR time.Duration
}

// QueueMode selects how a queue signals the OS.
type QueueMode int

// Queue signalling modes.
const (
	// ModePoll delivers no interrupts; the OS polls (IX dataplane).
	ModePoll QueueMode = iota
	// ModeInterrupt raises moderated interrupts (Linux NAPI).
	ModeInterrupt
)

// RxQueue is one receive queue: a descriptor ring holding received frames
// until the OS consumes them.
type RxQueue struct {
	nic *NIC
	ID  int

	// ring is a head-indexed deque: consumed frames advance head, arrivals
	// append, and the backing array is reset (and reused) whenever the
	// queue drains. Steady-state push/pop does not allocate.
	ring     []*fabric.Frame
	head     int
	ringSize int
	// descAvail is the number of posted (free) receive descriptors.
	// When it reaches zero, arriving frames are dropped — exactly the
	// "queues build up only at the NIC edge" behaviour of §3.
	descAvail int

	Mode QueueMode
	// OnFrame is called (in poll mode) whenever a frame lands in an
	// empty ring, so an idle elastic thread can wake. May be nil.
	OnFrame func()
	// OnInterrupt is the interrupt handler (interrupt mode).
	OnInterrupt func()

	intrArmed   bool // interrupts enabled (NAPI re-enables after poll)
	intrPending bool
	lastIntr    sim.Time

	// Stats.
	RxFrames uint64
	RxDrops  uint64
}

// Len returns the number of frames waiting in the ring.
func (q *RxQueue) Len() int { return len(q.ring) - q.head }

// DescAvail returns the number of posted free descriptors.
func (q *RxQueue) DescAvail() int { return q.descAvail }

// PostDescriptors replenishes n receive descriptors (bounded by ring
// size). Each call models one PCIe doorbell write; the caller charges its
// cost. Returns the number actually posted.
//
//ix:hotpath
func (q *RxQueue) PostDescriptors(n int) int {
	room := q.ringSize - q.descAvail - q.Len()
	if n > room {
		n = room
	}
	if n > 0 {
		q.descAvail += n
	}
	return n
}

// Take removes up to n frames from the ring (the poll step (1) of the
// run-to-completion cycle, or a NAPI budget-bounded poll). The returned
// slice aliases the ring storage and is valid only until the next frame
// arrival: consumers process (and Release) the batch synchronously within
// the same simulation event.
//
//ix:hotpath
func (q *RxQueue) Take(n int) []*fabric.Frame {
	if avail := q.Len(); n > avail {
		n = avail
	}
	out := q.ring[q.head : q.head+n : q.head+n]
	q.head += n
	if q.head == len(q.ring) {
		q.ring = q.ring[:0]
		q.head = 0
	}
	return out
}

// Extract removes, preserving arrival order, every waiting frame that
// matches, returning their descriptors to the free pool. It is the
// migration drain: the dataplane pulls a quiesced flow group's in-flight
// frames out of the source ring before re-homing them.
func (q *RxQueue) Extract(match func(*fabric.Frame) bool) []*fabric.Frame {
	var out []*fabric.Frame
	live := q.ring[q.head:]
	rest := live[:0]
	for _, f := range live {
		if match(f) {
			out = append(out, f)
		} else {
			rest = append(rest, f)
		}
	}
	q.ring = q.ring[: q.head+len(rest) : cap(q.ring)]
	q.descAvail += len(out)
	return out
}

// push appends an arrived frame, reusing drained backing storage.
//
//ix:hotpath
func (q *RxQueue) push(f *fabric.Frame) {
	q.ring = append(q.ring, f)
}

// Inject appends a migrated frame to the ring tail, consuming a
// descriptor. Because the RETA entry is flipped before the source ring is
// drained, the destination ring holds no frames of the migrating flow
// group yet, so tail insertion preserves intra-flow order. Reports false
// (frame dropped, released and counted) when no descriptor is free.
//
//ix:hotpath
func (q *RxQueue) Inject(f *fabric.Frame) bool {
	if q.descAvail <= 0 || q.Len() >= q.ringSize {
		q.RxDrops++
		q.nic.RxDrops++
		f.Release()
		return false
	}
	q.descAvail--
	q.push(f)
	if q.Mode == ModePoll && q.Len() == 1 && q.OnFrame != nil {
		q.OnFrame()
	}
	return true
}

// EnableInterrupt arms the queue's interrupt (NAPI completion).
func (q *RxQueue) EnableInterrupt() {
	q.intrArmed = true
	if len(q.ring) > 0 {
		q.fireInterrupt()
	}
}

// DisableInterrupt masks the queue's interrupt (NAPI poll start).
func (q *RxQueue) DisableInterrupt() { q.intrArmed = false }

//ix:hotpath
func (q *RxQueue) deliver(f *fabric.Frame) {
	if q.descAvail <= 0 || q.Len() >= q.ringSize {
		q.RxDrops++
		q.nic.RxDrops++
		f.Release()
		return
	}
	q.descAvail--
	q.push(f)
	q.RxFrames++
	q.nic.RxFrames++
	switch q.Mode {
	case ModePoll:
		if q.Len() == 1 && q.OnFrame != nil {
			q.OnFrame()
		}
	case ModeInterrupt:
		if q.intrArmed {
			q.fireInterrupt()
		}
	}
}

// fireInterrupt schedules the handler respecting interrupt moderation.
func (q *RxQueue) fireInterrupt() {
	if q.intrPending || q.OnInterrupt == nil {
		return
	}
	q.intrPending = true
	now := q.nic.eng.Now()
	at := now
	if q.nic.cfg.ITR > 0 {
		earliest := q.lastIntr.Add(q.nic.cfg.ITR)
		if earliest > at {
			at = earliest
		}
	}
	q.nic.eng.Call(at, runInterrupt, q)
}

// runInterrupt is the interrupt trampoline (pooled one-shot event).
func runInterrupt(a any) {
	q := a.(*RxQueue)
	q.intrPending = false
	q.lastIntr = q.nic.eng.Now()
	q.nic.Interrupts++
	q.OnInterrupt()
}

// TxQueue is one transmit descriptor ring. Frames posted here are DMA'd
// to a port at line rate; completion returns descriptors.
type TxQueue struct {
	nic *NIC
	ID  int

	inFlight int
	ringSize int

	// departs is a min-heap of in-flight descriptors' wire-departure
	// times; completions are reclaimed lazily at the next Post/InFlight
	// instead of costing one engine event per frame. A heap (not a FIFO)
	// because a bonded NIC spreads one queue's frames across member
	// ports with independent serialization clocks, so departure times
	// are not monotone in post order.
	departs []sim.Time

	TxFrames uint64
	TxDrops  uint64
}

// pushDepart records an in-flight descriptor's departure time.
func (t *TxQueue) pushDepart(at sim.Time) {
	h := t.departs
	i := len(h)
	h = append(h, at)
	for i > 0 {
		parent := (i - 1) >> 1
		if h[parent] <= at {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = at
	t.departs = h
}

// reclaim returns descriptors whose frames have left the wire.
func (t *TxQueue) reclaim() {
	now := t.nic.eng.Now()
	for len(t.departs) > 0 && t.departs[0] <= now {
		h := t.departs
		n := len(h) - 1
		last := h[n]
		h = h[:n]
		if n > 0 {
			i := 0
			for {
				c := i<<1 + 1
				if c >= n {
					break
				}
				if c+1 < n && h[c+1] < h[c] {
					c++
				}
				if h[c] >= last {
					break
				}
				h[i] = h[c]
				i = c
			}
			h[i] = last
		}
		t.departs = h
		t.inFlight--
	}
}

// Post places a frame on the TX ring. It reports false (dropping and
// releasing the frame) if the ring is full — transmit queue starvation,
// which IX's bounded batching is designed to avoid.
func (t *TxQueue) Post(f *fabric.Frame) bool {
	t.reclaim()
	if t.inFlight >= t.ringSize {
		t.TxDrops++
		f.Release()
		return false
	}
	t.inFlight++
	t.TxFrames++
	port := t.nic.txPort(f.Data)
	port.Send(f)
	// The descriptor completes (writeback) when serialization finishes;
	// reclaim picks it up lazily.
	t.pushDepart(port.Busy())
	return true
}

// InFlight returns the number of un-completed descriptors.
func (t *TxQueue) InFlight() int {
	t.reclaim()
	return t.inFlight
}

// NIC is the device: queues, RSS state, and its physical ports.
type NIC struct {
	eng *sim.Engine
	MAC wire.MAC
	cfg Config

	ports []*fabric.Port
	rx    []*RxQueue
	tx    []*TxQueue

	rssKey   [40]byte
	rssTable *rssTable
	reta     [RetaSize]uint8

	// Stats.
	RxFrames   uint64
	RxDrops    uint64
	Interrupts uint64
}

// New creates a NIC with the given MAC and configuration.
func New(eng *sim.Engine, mac wire.MAC, cfg Config) *NIC {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	n := &NIC{eng: eng, MAC: mac, cfg: cfg, rssKey: DefaultRSSKey}
	n.rssTable = buildRSSTable(n.rssKey[:])
	for i := 0; i < cfg.Queues; i++ {
		rq := &RxQueue{nic: n, ID: i, ringSize: cfg.RingSize}
		rq.descAvail = cfg.RingSize
		n.rx = append(n.rx, rq)
		n.tx = append(n.tx, &TxQueue{nic: n, ID: i, ringSize: cfg.RingSize})
	}
	// Default RETA: round-robin across all queues.
	for i := 0; i < RetaSize; i++ {
		n.reta[i] = uint8(i % cfg.Queues)
	}
	return n
}

// AttachPort connects a physical port (one side of a link) to the NIC.
func (n *NIC) AttachPort(p *fabric.Port) {
	p.Attach(n)
	n.ports = append(n.ports, p)
}

// RxQueue returns receive queue i.
func (n *NIC) RxQueue(i int) *RxQueue { return n.rx[i] }

// TxQueue returns transmit queue i.
func (n *NIC) TxQueue(i int) *TxQueue { return n.tx[i] }

// TxDrops sums the frames dropped at a full TX ring over every queue.
func (n *NIC) TxDrops() uint64 {
	var d uint64
	for _, t := range n.tx {
		d += t.TxDrops
	}
	return d
}

// RETA returns the current redirection table.
func (n *NIC) RETA() [RetaSize]uint8 { return n.reta }

// SpreadRETA programs the table to spread buckets round-robin over queues
// [0, active).
func (n *NIC) SpreadRETA(active int) {
	if active <= 0 {
		active = 1
	}
	if active > n.cfg.Queues {
		active = n.cfg.Queues
	}
	var r [RetaSize]uint8
	for i := 0; i < RetaSize; i++ {
		r[i] = uint8(i % active)
	}
	n.reta = r
}

// SetRETAEntry repoints one redirection-table bucket — the hardware
// operation behind a single flow-group migration (§4.4): after the write,
// every new frame of the bucket's flows lands on the new queue.
func (n *NIC) SetRETAEntry(bucket, queue int) {
	if queue < 0 || queue >= n.cfg.Queues {
		panic("nicsim: RETA entry references nonexistent queue")
	}
	n.reta[bucket&(RetaSize-1)] = uint8(queue)
}

// RetaChange is one planned bucket reassignment: the flow group hashing
// to Bucket moves from queue From to queue To.
type RetaChange struct {
	Bucket   int
	From, To uint8
}

// PlanRepartition computes a minimal-move reassignment of the redirection
// table onto queues [0, active): buckets owned by revoked queues are
// spread over the survivors, then buckets move from the most- to the
// least-loaded queue until counts are balanced within one. Unlike a
// round-robin rewrite, flow groups that do not need to move stay put, so
// the dataplane migrates only the returned buckets. The plan is not
// applied; the caller flips each entry with SetRETAEntry at its migration
// point.
func (n *NIC) PlanRepartition(active int) []RetaChange {
	if active <= 0 {
		active = 1
	}
	if active > n.cfg.Queues {
		active = n.cfg.Queues
	}
	work := n.reta
	count := make([]int, active)
	for _, q := range work {
		if int(q) < active {
			count[q]++
		}
	}
	var changes []RetaChange
	move := func(b, to int) {
		from := work[b]
		if int(from) < active {
			count[from]--
		}
		work[b] = uint8(to)
		count[to]++
		changes = append(changes, RetaChange{Bucket: b, From: from, To: uint8(to)})
	}
	argmin := func() int {
		best := 0
		for i, c := range count {
			if c < count[best] {
				best = i
			}
		}
		return best
	}
	// Orphaned buckets (owner queue revoked) go to the least-loaded
	// survivor.
	for b, q := range work {
		if int(q) >= active {
			move(b, argmin())
		}
	}
	// Even out: repeatedly shift the lowest-numbered bucket of the most-
	// loaded queue to the least-loaded one.
	for {
		lo, hi := 0, 0
		for i, c := range count {
			if c < count[lo] {
				lo = i
			}
			if c > count[hi] {
				hi = i
			}
		}
		if count[hi]-count[lo] <= 1 {
			break
		}
		for b, q := range work {
			if int(q) == hi {
				move(b, lo)
				break
			}
		}
	}
	return changes
}

// RSSQueue returns the queue the NIC would select for a flow — used both
// by delivery and by client stacks that probe ephemeral ports so replies
// land on the connecting thread's queue (§4.4).
func (n *NIC) RSSQueue(k wire.FlowKey) int {
	return int(n.reta[n.RSSBucket(k)])
}

// RSSBucket returns the redirection-table bucket (flow group, §4.4) a
// flow hashes to — the unit of control-plane flow migration.
func (n *NIC) RSSBucket(k wire.FlowKey) int {
	return int(n.rssTable.hash(k) & (RetaSize - 1))
}

// FrameBucket returns the RSS bucket of a raw frame, or ok=false for
// frames outside RSS classification (ARP, ICMP, non-IPv4).
func (n *NIC) FrameBucket(data []byte) (int, bool) {
	k, ok := n.frameKey(data)
	if !ok {
		return 0, false
	}
	return n.RSSBucket(k), true
}

// Deliver implements fabric.Endpoint: frame arrival from any member port.
func (n *NIC) Deliver(f *fabric.Frame) {
	q := n.classify(f.Data)
	n.rx[q].deliver(f)
}

// classify picks the RX queue for a frame: RSS for TCP/UDP over IPv4,
// queue 0 for everything else (ARP, ICMP) — matching hardware defaults.
func (n *NIC) classify(data []byte) int {
	k, ok := n.frameKey(data)
	if !ok {
		return 0
	}
	return n.RSSQueue(k)
}

// frameKey extracts the RSS flow key of a frame; ok=false for frames the
// hardware would not hash (non-IPv4, non-TCP/UDP). The parse reads the
// fixed header fields directly — RSS hardware does not validate IP
// checksums; the receiving stack still does.
func (n *NIC) frameKey(data []byte) (wire.FlowKey, bool) {
	if len(data) < wire.EthHdrLen+wire.IPv4HdrLen+4 {
		return wire.FlowKey{}, false
	}
	if uint16(data[12])<<8|uint16(data[13]) != wire.EtherTypeIPv4 {
		return wire.FlowKey{}, false
	}
	ip := data[wire.EthHdrLen:]
	if ip[0] != 0x45 { // version 4, IHL 5 (no options anywhere in the testbed)
		return wire.FlowKey{}, false
	}
	proto := ip[9]
	if proto != wire.ProtoTCP && proto != wire.ProtoUDP {
		return wire.FlowKey{}, false
	}
	tr := ip[wire.IPv4HdrLen:]
	return wire.FlowKey{
		SrcIP:   wire.IPv4(uint32(ip[12])<<24 | uint32(ip[13])<<16 | uint32(ip[14])<<8 | uint32(ip[15])),
		DstIP:   wire.IPv4(uint32(ip[16])<<24 | uint32(ip[17])<<16 | uint32(ip[18])<<8 | uint32(ip[19])),
		SrcPort: uint16(tr[0])<<8 | uint16(tr[1]),
		DstPort: uint16(tr[2])<<8 | uint16(tr[3]),
		Proto:   proto,
	}, true
}

// IsTCPSYN reports whether a raw frame is a TCP handshake segment (SYN
// or SYN-ACK), using the same fixed-offset parse as RSS classification.
// OS models use it to charge handshake frames the connection-working-set
// miss floor instead of the full DDIO curve: accept-path state (listener,
// SYN backlog, fresh PCB) is compact and stays LLC-resident across an
// establishment burst, so a batch of SYNs amortizes the per-frame miss
// penalty that data segments pay at large connection counts.
func IsTCPSYN(data []byte) bool {
	// Flags byte sits at a fixed offset: Ethernet + minimal IPv4 + 13.
	const off = wire.EthHdrLen + wire.IPv4HdrLen + 13
	if len(data) <= off {
		return false
	}
	if uint16(data[12])<<8|uint16(data[13]) != wire.EtherTypeIPv4 {
		return false
	}
	ip := data[wire.EthHdrLen:]
	if ip[0] != 0x45 || ip[9] != wire.ProtoTCP {
		return false
	}
	return data[off]&wire.TCPSyn != 0
}

// txPort selects the member port for an outgoing frame: the only port for
// single-port NICs, otherwise by L3+L4 flow hash so each flow stays on one
// member (mirroring the switch-side bond hash).
func (n *NIC) txPort(data []byte) *fabric.Port {
	if len(n.ports) == 0 {
		panic("nicsim: NIC has no ports")
	}
	if len(n.ports) == 1 {
		return n.ports[0]
	}
	q := n.classify(data)
	// Spread flows over member ports using the RSS hash of the frame,
	// keeping per-flow ordering.
	return n.ports[q%len(n.ports)]
}
