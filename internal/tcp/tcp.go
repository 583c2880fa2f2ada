// Package tcp is a from-scratch TCP engine in the role lwIP played in IX
// (§4.2): handshake, sliding windows, Jacobson RTT estimation with
// exponential backoff, fast retransmit, slow start and congestion
// avoidance, reassembly and FIN/RST teardown, restructured for per-core
// shared-nothing operation and fine-grained timers. One Stack exists per
// elastic thread (or kernel core, or Linux host) and they share nothing;
// the embedding OS model supplies the clock, a timer wheel and an output
// function, and receives events through callbacks. For IX semantics:
//   - Sendv accepts only what the congestion and peer windows permit and
//     transmits it at once; the application owns send buffering.
//   - Received payload is delivered as zero-copy mbuf references; the
//     receive window advances only when RecvDone (recv_done) returns them.
//   - Pure ACKs leave at Flush, at the end of a processing batch, so
//     acknowledgments follow application progress (§3).
package tcp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// State is a TCP connection state. The underlying type is a single
// byte so it packs into the Conn header's padding.
type State uint8

// TCP states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"Closed", "Listen", "SynSent", "SynRcvd", "Established",
	"FinWait1", "FinWait2", "CloseWait", "Closing", "LastAck", "TimeWait",
}

func (s State) String() string { return stateNames[s] }

// Reason explains a dead event condition.
type Reason int

// Dead reasons (the `reason` parameter of the dead event in Table 1).
const (
	ReasonClosed  Reason = iota // orderly close completed
	ReasonReset                 // RST from peer
	ReasonTimeout               // retransmission limit exceeded
	ReasonRefused               // connect failed (RST to SYN)
)

var reasonNames = [...]string{"closed", "reset", "timeout", "refused"}

func (r Reason) String() string {
	if r < 0 || int(r) >= len(reasonNames) {
		return "unknown"
	}
	return reasonNames[r]
}

// Events receives protocol events; the OS model surfaces them as event
// conditions (Table 1).
type Events interface {
	// Accepted fires when a remotely initiated connection is established.
	Accepted(c *Conn)
	// Connected fires when a local open succeeds (true) or fails (false).
	Connected(c *Conn, ok bool)
	// Recv delivers in-order payload as a zero-copy view into buf, which
	// the receiver must Ref to hold past the callback; the window stays
	// closed until RecvDone returns the bytes.
	Recv(c *Conn, buf *mem.Mbuf, data []byte)
	// Sent fires when accepted bytes are acknowledged or the usable
	// window grows. released counts the payload of segments this ACK
	// fully covered, which the stack no longer references, so the
	// zero-copy sender may reclaim them; it lags acked while a segment is
	// partly acknowledged.
	Sent(c *Conn, acked, released int)
	// RemoteClosed fires on the peer's FIN (half-close).
	RemoteClosed(c *Conn)
	// Dead fires when the connection terminates.
	Dead(c *Conn, reason Reason)
}

// Output emits a segment: the embedding layer frames it and queues it on
// its NIC. The payload slices are the application's and immutable (zero
// copy); the slice of them is a scratch Output must consume before it
// returns. A one-fragment payload may ride by reference, pinning the
// memory PayloadBacking names.
type Output func(c *Conn, hdr *wire.TCPHeader, payload [][]byte)

// Config parameterizes a Stack.
type Config struct {
	LocalIP wire.IPv4
	// Now returns virtual time in nanoseconds.
	Now func() int64
	// Wheel is the per-thread hierarchical timer wheel.
	Wheel *timerwheel.Wheel
	// Output emits an assembled segment.
	Output Output
	// Events receives protocol callbacks.
	Events Events
	// RcvWnd is the maximum receive window in bytes (default 256 KB).
	RcvWnd int
	// PortOK, if set, filters ephemeral ports: IX probes for one whose
	// return-direction RSS hash lands on this thread's queue (§4.4).
	PortOK func(port uint16, dst wire.IPv4, dport uint16) bool
	// Seed initializes the ISS generator (deterministic).
	Seed uint64
	// MinRTO bounds the retransmission timeout from below. The paper
	// supports timeouts as low as 16 µs for incast; default 200 µs.
	MinRTO time.Duration
	// MaxRexmits is the retransmission limit before the connection dies
	// with ReasonTimeout (default 8, at most maxRexmits).
	MaxRexmits int
	// TimeWait is the 2MSL quiet period (scaled down; default 1 ms).
	TimeWait time.Duration
	// SynBacklog bounds embryonic connections per listener (default 1024).
	SynBacklog int
	// ExpectedConns presizes the connection table (0 = grow on demand).
	ExpectedConns int
	// DelAck, when positive, defers a pure ACK for in-order data up to
	// this long or to the second segment (RFC 1122), for a response to
	// carry. Linux uses it; IX's ACKs are paced by the application (§3).
	DelAck time.Duration
}

// Default window/limits.
const (
	defaultRcvWnd  = 256 << 10
	defaultMinRTO  = 200 * time.Microsecond
	defaultRexmits = 8
	maxRexmits     = 254 // the count past it still fits Conn.rexmitCount
	defaultTW      = time.Millisecond
	defaultBacklog = 1024
	initialRTO     = time.Millisecond
	maxRTO         = 4 * time.Second // caps the RTO and the stored estimator (32-bit ns)
	// initialCwnd is IW10 in segments.
	initialCwnd = 10
	// wscale used on both directions (fixed shift covering 256 KB).
	wndShift = 3
)

// Stack is a shared-nothing TCP instance: one per elastic thread.
type Stack struct {
	cfg   Config
	arena arena // the PCBs, which conns indexes by flow key
	conns flowTable
	// listeners holds one entry per listening port: a handful at most,
	// so a scan beats hashing the port.
	listeners []*Listener
	needsAck  []ConnID // owing Flush a segment; Flush skips the stale
	isn       uint64
	nextPort  uint16
	// sg is the scratch segments are assembled in. hdr is the scratch
	// header the emit paths fill: a local one passed to the dynamic
	// Output escapes, one allocation per segment. Emissions never nest.
	sg  [][]byte
	hdr wire.TCPHeader
	// back is the backing of the segment Output is emitting
	// (PayloadBacking), nil outside a data segment's emission.
	back fabric.Backing
	// flights is the directory of every flight the stack has built, one
	// named n by index n-1; flightFree names those pooled (LIFO, so the
	// hot objects stay cache-warm).
	flights    []*flight
	flightFree []uint32
	// synQ holds each embryonic connection's first handshake
	// retransmission deadline, from synHead on. Each is its arming instant
	// plus initialRTO, so arming order is deadline order and one timer,
	// synTimer, serves the queue: kept on the first live deadline at the
	// place in the wheel's order its entry reserved, nil when none is
	// live. A handshake that completes or dies leaves its entry behind,
	// dead, dropped when it reaches the head.
	synQ     []synEntry
	synHead  int
	synTimer *timerwheel.Timer

	// Stats.
	SegsIn, SegsOut uint64
	// OutOfOrderSegs counts data segments that entered reassembly: on a
	// lossless fabric only a reordering (a buggy migration) raises it.
	OutOfOrderSegs  uint64
	Retransmits     uint64
	FastRetransmits uint64
	BadChecksums    uint64
	AcceptedConns   uint64
	// SynsAdmitted counts passive opens (their SYN-ACKs leave at Flush).
	SynsAdmitted uint64
	StaleIDs     uint64 // ids refused by Conn
}

// NewStack builds a stack from cfg, applying defaults.
func NewStack(cfg Config) *Stack {
	if cfg.Now == nil || cfg.Wheel == nil || cfg.Output == nil || cfg.Events == nil {
		panic("tcp: Config requires Now, Wheel, Output and Events")
	}
	if cfg.RcvWnd <= 0 {
		cfg.RcvWnd = defaultRcvWnd
	}
	if cfg.MinRTO <= 0 {
		cfg.MinRTO = defaultMinRTO
	}
	if cfg.MaxRexmits <= 0 {
		cfg.MaxRexmits = defaultRexmits
	}
	cfg.MaxRexmits = min(cfg.MaxRexmits, maxRexmits)
	if cfg.TimeWait <= 0 {
		cfg.TimeWait = defaultTW
	}
	if cfg.SynBacklog <= 0 {
		cfg.SynBacklog = defaultBacklog
	}
	s := &Stack{
		cfg:      cfg,
		isn:      cfg.Seed | 1,
		nextPort: 32768,
	}
	s.arena.owner = s
	s.conns = newFlowTable(&s.arena, cfg.ExpectedConns)
	return s
}

// A Listener accepts connections on a local port.
type Listener struct {
	Port      uint16
	embryonic int
}

// Listen starts accepting connections on port. The second argument is
// not used.
func (s *Stack) Listen(port uint16, _ any) (*Listener, error) {
	if s.listener(port) != nil {
		return nil, fmt.Errorf("tcp: port %d already listening", port)
	}
	l := &Listener{Port: port}
	s.listeners = append(s.listeners, l)
	return l, nil
}

// listener returns the listener on port, or nil.
//
//ix:hotpath
func (s *Stack) listener(port uint16) *Listener {
	for _, l := range s.listeners {
		if l.Port == port {
			return l
		}
	}
	return nil
}

// embryonicDone takes a connection leaving SynRcvd off its port's
// backlog count, if the stack listens on the port.
func (s *Stack) embryonicDone(port uint16) {
	if l := s.listener(port); l != nil {
		l.embryonic--
	}
}

// ConnCount returns the number of live (non-TimeWait) connections, which
// the cost model uses for the DDIO working-set term.
func (s *Stack) ConnCount() int { return s.conns.n }

// nextISS returns a deterministic initial send sequence.
func (s *Stack) nextISS() uint32 {
	s.isn = s.isn*6364136223846793005 + 1442695040888963407
	return uint32(s.isn >> 32)
}

// txSeg is one unacknowledged segment. It references the sender's bytes
// in place (runs of its TX arena's chunks), which stay
// immutable until the segment is acknowledged. Up to two fragments are
// inline, so tracking one does not allocate; more spill to extra. back is
// the pooled memory a one-fragment segment lies in, if named: the frames
// carrying it by reference pin it.
type txSeg struct {
	seq    uint32
	fin    bool
	length int // payload bytes (SYN/FIN consume sequence space separately)
	frag0  []byte
	frag1  []byte
	extra  [][]byte
	back   fabric.Backing
}

// setPayload captures the fragment references of one assembled segment.
func (ts *txSeg) setPayload(sg [][]byte) {
	switch len(sg) {
	case 0:
	case 1:
		ts.frag0 = sg[0]
	case 2:
		ts.frag0, ts.frag1 = sg[0], sg[1]
	default:
		ts.frag0, ts.frag1 = sg[0], sg[1]
		ts.extra = append([][]byte(nil), sg[2:]...)
	}
}

// appendPayload appends the segment's fragment references to sg.
func (ts *txSeg) appendPayload(sg [][]byte) [][]byte {
	if ts.frag0 != nil {
		sg = append(sg, ts.frag0)
	}
	if ts.frag1 != nil {
		sg = append(sg, ts.frag1)
	}
	return append(sg, ts.extra...)
}

// retransInline is the flight's inline segment capacity, enough for
// request-response traffic; bursts spill to an ordinary slice.
const retransInline = 2

// maxPooledSpill bounds the spilled backing a pooled flight keeps, so a
// bulk sender's 64 KiB flights (45 segments) reuse one instead of
// regrowing it per message. keepSpill accepts append's size-class
// rounding up to the next doubling; larger backings are dropped.
const maxPooledSpill = 64

// keepSpill reports whether a drained queue's backing stays pooled.
func keepSpill(q []txSeg) bool {
	return cap(q) > retransInline && cap(q) < 2*maxPooledSpill
}

// flight is everything a connection holds only while something is
// pending: unacknowledged data, held out-of-order segments or an armed
// timer. An idle connection holds none; it borrows one from its stack's
// LIFO pool when the first appears and returns it, cleared, when all are
// gone (settle).
//
// The retransmission queue is a head-indexed ring: the cumulative-ACK
// trim advances head, zeroing what it drops; q aliases the inline array
// until a burst spills it. Beside it sit the pending RTT sample and the
// NewReno recovery state, neither of which outlives a drained queue.
type flight struct {
	q []txSeg
	// RTT timing: one segment at a time (rttSeq is its end), sampled by
	// the ACK that covers it unless a retransmission intervened (Karn).
	rttStart int64

	// c is the connection that borrowed the flight; Migrate moves it.
	c *Conn

	// Timers take the flight as their argument to package-level
	// trampolines: a bound method value would allocate per arming. timer
	// is the RTO until TIME_WAIT and the 2MSL timer in it; nothing arms
	// the RTO in TIME_WAIT.
	timer   *timerwheel.Timer
	daTimer *timerwheel.Timer

	// reasm holds out-of-order segments; nil unless some are held.
	reasm *reasmQ

	// head is int32: the queue is bounded by the window's segments.
	head   int32
	rttSeq uint32
	// Loss recovery is NewReno (RFC 6582): in recovery, a partial ACK
	// (below recoverSeq, sndNxt at detection) retransmits the next hole at
	// once rather than after another RTO, which at a 200 µs floor would be
	// the incast collapse of §5.
	recoverSeq uint32
	// dupAcks is bounded by the segments of one flight.
	dupAcks    uint16
	inRecovery bool
	rttPending bool
	inl        [retransInline]txSeg
}

// idle reports whether nothing in f is pending: the queue is drained,
// no segment is held for reassembly and both timers are disarmed.
func (f *flight) idle() bool {
	return int(f.head) == len(f.q) && f.reasm == nil && f.timer == nil && f.daTimer == nil
}

// clearTx empties the retransmission queue, leaving no payload
// reference, and resets the timing and recovery scalars. Only live
// entries need clearing (trim and compaction zero what they drop), and
// the inline array once spilled; a spilled backing stays if keepSpill.
func (f *flight) clearTx() {
	clear(f.q[f.head:])
	f.q = f.q[:0]
	if cap(f.q) > retransInline {
		f.inl = [retransInline]txSeg{}
		if !keepSpill(f.q) {
			f.q = f.inl[:0:retransInline]
		}
	}
	f.head = 0
	f.rttStart, f.rttSeq, f.rttPending = 0, 0, false
	f.recoverSeq, f.dupAcks, f.inRecovery = 0, 0, false
}

// getFlight pops a pooled flight (or builds one) and returns its name.
func (s *Stack) getFlight() uint32 {
	if n := len(s.flightFree); n > 0 {
		fl := s.flightFree[n-1]
		s.flightFree = s.flightFree[:n-1]
		return fl
	}
	f := &flight{}
	f.q = f.inl[:0:retransInline]
	s.flights = append(s.flights, f)
	return uint32(len(s.flights))
}

// putFlight clears flight fl, whose timers are cancelled and held
// segments released, and returns it to the pool.
func (s *Stack) putFlight(fl uint32) {
	f := s.flights[fl-1]
	f.clearTx()
	f.c, f.timer, f.daTimer, f.reasm = nil, nil, nil, nil
	s.flightFree = append(s.flightFree, fl)
}

// flight returns the connection's flight, or nil if it holds none.
func (c *Conn) flight(s *Stack) *flight {
	if c.fl == 0 {
		return nil
	}
	return s.flights[c.fl-1]
}

// borrow returns the connection's flight, borrowing one if it has none.
func (c *Conn) borrow(s *Stack) *flight {
	if c.fl == 0 {
		c.fl = s.getFlight()
		s.flights[c.fl-1].c = c
	}
	return s.flights[c.fl-1]
}

// settle returns the connection's flight once nothing in it is pending.
// It runs after each input segment and each Flush emission, so a flight
// emptied part way through is returned once, at the end.
func (c *Conn) settle(s *Stack) {
	if f := c.flight(s); f != nil && f.idle() {
		s.putFlight(c.fl)
		c.fl = 0
	}
}

// rxSeg is an out-of-order segment held for reassembly.
type rxSeg struct {
	seq  uint32
	data []byte
	buf  *mem.Mbuf
}

// reasmQ is a connection's out-of-order hold queue, allocated on the
// first out-of-order arrival and dropped when it drains.
type reasmQ struct {
	segs  []rxSeg
	bytes int32
}

// Conn is a TCP connection. Fields are owned by the stack's thread.
//
// The layout rule, here and in every layer above (DESIGN.md,
// "Per-connection memory budget"): a field lives in the connection only
// if an idle established connection needs it; what exists only while
// something is pending sits in the borrowed flight. A PCB lives in a
// slot of its stack's arena (arena.go) and holds no pointer: the stack is
// its block's header, the flight an index into the stack's directory,
// and an owning layer finds its state by the connection's slot. It is
// 64 B, one cache line (TestConnStateSizes).
type Conn struct {
	// key is the local view: SrcIP/SrcPort local, DstIP/DstPort remote.
	key connKey

	// Send state. Until the handshake completes sndUna is the initial
	// send sequence: the SYN or SYN-ACK and its retransmissions carry it,
	// and the peer's handshake reply must acknowledge sndUna+1.
	sndUna uint32
	sndNxt uint32
	sndWnd uint32 // peer-advertised, scaled

	// Congestion control; the loss-recovery state lives in fl.
	cwnd     uint32
	ssthresh uint32

	// RTT estimation in nanoseconds: 32 bits hold the 4 s maxRTO cap,
	// applied on store (rttNs).
	srtt, rttvar uint32
	rto          uint32

	// Receive state.
	rcvNxt     uint32
	unconsumed int32 // delivered to app, not yet RecvDone'd

	// fl names the borrowed flight in the stack's directory (index plus
	// one): 0 unless something is pending.
	fl uint32
	// id is the connection's name in its stack (ConnID).
	id ConnID

	state      State
	peerWShift uint8
	flags      connFlags
	// rexmitCount counts consecutive timeouts until an ACK advances
	// sndUna. It is not in fl: the handshake's ACK does not reset it, and
	// a count kept there would keep an idle connection's flight borrowed.
	rexmitCount uint8
}

// connFlags packs a connection's booleans into one byte.
type connFlags uint8

const (
	finQueued connFlags = 1 << iota
	finRcvd
	needAck
	// synAckOwed marks an admitted embryonic connection whose SYN-ACK
	// is owed to the next Flush (batched SYN admission).
	synAckOwed
	inAckLst
	// daSeg marks an in-order segment whose ACK is being delayed: the
	// next one is the second segment, which RFC 1122 acknowledges at once.
	daSeg
	// synTimed marks an embryonic connection whose first SYN or SYN-ACK
	// retransmission deadline is live in its stack's synQ.
	synTimed
)

// has reports whether all of f are set.
func (c *Conn) has(f connFlags) bool { return c.flags&f == f }

// Key returns the connection 4-tuple from the local perspective.
func (c *Conn) Key() wire.FlowKey { return c.key.flow() }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// inFlight returns bytes in flight.
func (c *Conn) inFlight() uint32 { return c.sndNxt - c.sndUna }

// retransLen returns the number of tracked unacknowledged segments.
func (c *Conn) retransLen(s *Stack) int {
	f := c.flight(s)
	if f == nil {
		return 0
	}
	return len(f.q) - int(f.head)
}

// UsableWindow returns how many more payload bytes the windows permit
// (the sent event condition's window_size).
func (c *Conn) UsableWindow() int {
	wnd := c.sndWnd
	if c.cwnd < wnd {
		wnd = c.cwnd
	}
	fl := c.inFlight()
	if fl >= wnd {
		return 0
	}
	return int(wnd - fl)
}

// rcvWndAvail computes the receive window to advertise: total minus bytes
// the application still holds (zero-copy flow control, §4.3).
func (c *Conn) rcvWndAvail(s *Stack) int {
	w := s.cfg.RcvWnd - int(c.unconsumed)
	if f := c.flight(s); f != nil && f.reasm != nil {
		w -= int(f.reasm.bytes)
	}
	if w < 0 {
		w = 0
	}
	return w
}

// Connect opens dst:port actively, returning the connection in SynSent;
// the Connected event reports the outcome. The third argument is not
// used. On the establishment fast path it allocates nothing but a new
// arena block once per block (TestZeroAllocConnEstablish).
//
//ix:hotpath
func (s *Stack) Connect(dst wire.IPv4, port uint16, _ uint64) (*Conn, error) {
	lp, err := s.allocPort(dst, port)
	if err != nil {
		return nil, err
	}
	c := s.newConn(connKey{
		SrcIP: s.cfg.LocalIP, DstIP: dst,
		SrcPort: lp, DstPort: port,
	})
	c.state = StateSynSent
	c.sndNxt = c.sndUna + 1
	s.conns.put(c)
	c.sendFlags(s, wire.TCPSyn, c.sndUna, 0, true)
	c.armSynRTO(s)
	return c, nil
}

var errPortSpaceExhausted = errors.New("tcp: ephemeral port space exhausted")

// allocPort picks an ephemeral port not in use for the destination,
// honoring the PortOK probe, without allocating.
//
//ix:hotpath
func (s *Stack) allocPort(dst wire.IPv4, dport uint16) (uint16, error) {
	for tries := 0; tries < 8192; tries++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			// Recycle through the full user range, as a load generator
			// widens ip_local_port_range: a Linux client host may hold
			// more than 32k connections to one destination.
			s.nextPort = 1024
		}
		if p < 1024 {
			continue
		}
		k := connKey{SrcIP: s.cfg.LocalIP, DstIP: dst, SrcPort: p, DstPort: dport}
		if s.conns.get(k) != nil {
			continue
		}
		if s.cfg.PortOK != nil && !s.cfg.PortOK(p, dst, dport) {
			continue
		}
		return p, nil
	}
	return 0, errPortSpaceExhausted
}

// newConn takes a PCB from the arena and opens it on key.
//
//ix:hotpath
func (s *Stack) newConn(key connKey) *Conn {
	iss := s.nextISS()
	c := s.arena.alloc()
	c.key = key
	c.sndUna, c.sndNxt = iss, iss
	c.cwnd = uint32(initialCwnd * wire.MSS)
	c.ssthresh = 1 << 30
	c.rto = rttNs(initialRTO)
	return c
}

// Timer trampolines: arming stores only the flight or stack pointer,
// which does not box. A flight names the connection it serves.
func connTimeWait(v any) { c := v.(*flight).c; c.onTimeWait(c.stack()) }
func connDelAck(v any)   { c := v.(*flight).c; c.onDelAck(c.stack()) }
func stackSynRTO(v any)  { v.(*Stack).onSynRTO() }

func connRTO(v any) {
	f := v.(*flight)
	f.timer = nil
	f.c.onRTO(f.c.stack())
}

// Input processes one incoming segment: seg is the TCP header and
// payload — the header alone when buf's frame carries the payload by
// reference (mem.Mbuf.Payload) — and buf the backing mbuf, retained by
// refcount. Invalid segments are counted and dropped. The checksum is
// verified unless buf holds an intact frame (fabric.Frame.Intact), whose
// offloaded sum cannot fail. It is the per-message and the establishment
// path, so it must not allocate.
//
//ix:hotpath
func (s *Stack) Input(src, dst wire.IPv4, seg []byte, buf *mem.Mbuf) {
	if (buf == nil || !buf.Intact()) && !wire.VerifyTCPChecksum(src, dst, seg) {
		s.BadChecksums++
		return
	}
	var hdr wire.TCPHeader
	off, err := hdr.Unmarshal(seg)
	if err != nil {
		s.BadChecksums++
		return
	}
	s.SegsIn++
	payload := seg[off:]
	if buf != nil && len(payload) == 0 {
		payload = buf.Payload()
	}
	key := connKey{ // local view
		SrcIP: dst, DstIP: src,
		SrcPort: hdr.DstPort, DstPort: hdr.SrcPort,
	}
	if c := s.conns.get(key); c != nil {
		c.input(s, &hdr, payload, buf)
		c.settle(s)
		return
	}
	// No connection: a SYN may create one via a listener.
	if hdr.Flags&wire.TCPSyn != 0 && hdr.Flags&wire.TCPAck == 0 {
		if l := s.listener(hdr.DstPort); l != nil {
			s.passiveOpen(l, key, &hdr)
			return
		}
	}
	if hdr.Flags&wire.TCPRst == 0 {
		s.sendRST(key, &hdr, len(payload))
	}
}

// passiveOpen handles SYN to a listener. The SYN-ACK is owed to the next
// Flush (batched SYN admission: a batch's replies leave together at its
// boundary); the timer armed here covers it. It allocates nothing but a
// new arena block (TestZeroAllocConnEstablish).
//
//ix:hotpath
func (s *Stack) passiveOpen(l *Listener, key connKey, hdr *wire.TCPHeader) {
	if l.embryonic >= s.cfg.SynBacklog {
		return // silently drop: SYN backlog full
	}
	c := s.newConn(key)
	c.state = StateSynRcvd
	c.rcvNxt = hdr.Seq + 1
	c.applyPeerOptions(hdr)
	c.sndNxt = c.sndUna + 1
	s.conns.put(c)
	l.embryonic++
	s.SynsAdmitted++
	c.scheduleSynAck(s)
	c.armSynRTO(s)
}

func (c *Conn) applyPeerOptions(hdr *wire.TCPHeader) {
	if hdr.WScale >= 0 {
		c.peerWShift = uint8(hdr.WScale)
	}
	w := uint32(hdr.Window)
	if hdr.Flags&wire.TCPSyn != 0 {
		// Window in SYN is unscaled.
		c.sndWnd = w
	} else {
		c.sndWnd = w << c.peerWShift
	}
}

// input runs the per-connection state machine on one segment.
func (c *Conn) input(s *Stack, hdr *wire.TCPHeader, payload []byte, buf *mem.Mbuf) {
	// RST processing first.
	if hdr.Flags&wire.TCPRst != 0 {
		if c.state == StateSynSent {
			c.destroy(s, ReasonRefused)
		} else {
			c.destroy(s, ReasonReset)
		}
		return
	}
	switch c.state {
	case StateSynSent:
		if hdr.Flags&(wire.TCPSyn|wire.TCPAck) == wire.TCPSyn|wire.TCPAck {
			if hdr.Ack != c.sndUna+1 {
				s.sendRST(c.key, hdr, len(payload))
				c.destroy(s, ReasonRefused)
				return
			}
			c.rcvNxt = hdr.Seq + 1
			c.sndUna = hdr.Ack
			c.applyPeerOptions(hdr)
			c.state = StateEstablished
			c.cancelRTO(s)
			c.scheduleAck(s) // the handshake ACK
			s.cfg.Events.Connected(c, true)
		}
		return
	case StateSynRcvd:
		if hdr.Flags&wire.TCPAck != 0 && hdr.Ack == c.sndUna+1 {
			c.sndUna = hdr.Ack
			c.applyPeerOptions(hdr)
			c.state = StateEstablished
			c.cancelRTO(s)
			s.embryonicDone(c.key.SrcPort)
			s.AcceptedConns++
			s.cfg.Events.Accepted(c)
			// Fall through: the ACK may carry data.
		} else {
			return
		}
	}

	// A retransmitted SYN or SYN-ACK arriving on a synchronized
	// connection means the peer missed our handshake ACK: answer with an
	// immediate ACK (RFC 793 §3.9) so its handshake can complete. Without
	// this the peer re-sends SYN-ACKs into silence until its
	// retransmission limit kills the embryonic connection.
	if hdr.Flags&wire.TCPSyn != 0 {
		c.sendAckNow(s)
		return
	}

	// ACK processing for synchronized states.
	if hdr.Flags&wire.TCPAck != 0 {
		c.processAck(s, hdr)
		if c.state == StateClosed {
			return
		}
	}
	// Data processing.
	if len(payload) > 0 {
		c.processData(s, hdr.Seq, payload, buf)
	}
	// FIN processing.
	if hdr.Flags&wire.TCPFin != 0 {
		c.processFin(s, hdr.Seq+uint32(len(payload)))
	}
}

// processAck handles acknowledgement and window updates.
func (c *Conn) processAck(s *Stack, hdr *wire.TCPHeader) {
	ack := hdr.Ack
	prevUsable := c.UsableWindow()
	c.applyPeerOptions(hdr)
	switch {
	case seqGT(ack, c.sndNxt):
		// Acks data never sent: protocol violation; answer with ACK.
		c.scheduleAck(s)
		return
	case seqLE(ack, c.sndUna):
		// Duplicate ACK. Data in flight is tracked in fl.
		if c.retransLen(s) > 0 && c.inFlight() > 0 && seqDiff(c.sndNxt, c.sndUna) > 0 {
			f := c.flight(s)
			if f.dupAcks++; f.dupAcks == 3 {
				c.fastRetransmit(s)
			}
		}
	default:
		acked := int(seqDiff(ack, c.sndUna))
		c.sndUna = ack
		c.rexmitCount = 0
		// The sample is taken before the trim, which clears the timing
		// and recovery state once the queue drains.
		c.updateRTT(s, ack)
		released := c.ackRetransQ(s, ack)
		c.growCwnd(uint32(acked))
		// A drained queue ended any recovery along with its state.
		if f := c.flight(s); f != nil {
			f.dupAcks = 0
			if f.inRecovery {
				if seqLT(ack, f.recoverSeq) {
					// Partial ACK: retransmit the next hole now.
					s.Retransmits++
					c.resend(s, &f.q[f.head])
				} else {
					f.inRecovery = false
				}
			}
		}
		if c.retransLen(s) == 0 {
			c.cancelRTO(s)
		} else {
			c.armRTO(s)
		}
		// sent event condition: bytes acked and/or window growth.
		if acked > 0 || c.UsableWindow() > prevUsable {
			s.cfg.Events.Sent(c, acked, released)
		}
		c.maybeFinish(s, ack)
	}
}

// ackRetransQ drops fully acknowledged segments, zeroing their entries
// so their payload references die, and returns the payload bytes
// released (the sent event's count, tx_sent). A drained queue is
// cleared, spill and scalars with it.
func (c *Conn) ackRetransQ(s *Stack, ack uint32) int {
	t := c.flight(s)
	if t == nil {
		return 0
	}
	released := 0
	head := int(t.head)
	for head < len(t.q) {
		ts := &t.q[head]
		end := ts.seq + uint32(ts.length)
		if ts.fin {
			end++
		}
		if seqGT(end, ack) {
			break
		}
		released += ts.length
		*ts = txSeg{}
		head++
	}
	if head == len(t.q) {
		t.clearTx()
		return released
	}
	if head >= 32 && head*2 >= len(t.q) {
		// A connection that always keeps a segment in flight never hits
		// the empty reset; compact the live suffix to the front so the
		// dead prefix cannot grow with connection lifetime.
		n := copy(t.q, t.q[head:])
		for i := n; i < len(t.q); i++ {
			t.q[i] = txSeg{} // drop duplicated payload references
		}
		t.q = t.q[:n]
		head = 0
	}
	t.head = int32(head)
	return released
}

// updateRTT takes an RTT sample if the timed segment was acked and was
// never retransmitted (Karn's rule), then recomputes the RTO.
func (c *Conn) updateRTT(s *Stack, ack uint32) {
	t := c.flight(s)
	if t == nil || !t.rttPending || seqLT(ack, t.rttSeq) {
		return
	}
	t.rttPending = false
	sample := time.Duration(s.cfg.Now() - t.rttStart)
	if sample <= 0 {
		return
	}
	srtt, rttvar := time.Duration(c.srtt), time.Duration(c.rttvar)
	if srtt == 0 {
		srtt = sample
		rttvar = sample / 2
	} else {
		delta := srtt - sample
		if delta < 0 {
			delta = -delta
		}
		rttvar = (3*rttvar + delta) / 4
		srtt = (7*srtt + sample) / 8
	}
	rto := srtt + 4*rttvar
	if rto < s.cfg.MinRTO {
		rto = s.cfg.MinRTO
	}
	c.srtt, c.rttvar, c.rto = rttNs(srtt), rttNs(rttvar), rttNs(rto)
}

// rttNs narrows an estimator value to its stored form, clamping at
// maxRTO: the timeout never exceeds it, so neither need its inputs.
func rttNs(d time.Duration) uint32 {
	if d > maxRTO {
		d = maxRTO
	}
	return uint32(d)
}

// growCwnd applies slow start or congestion avoidance.
func (c *Conn) growCwnd(acked uint32) {
	mss := uint32(wire.MSS)
	if c.cwnd < c.ssthresh {
		// Slow start: grow by bytes acked (ABC).
		if acked > mss {
			acked = mss
		}
		c.cwnd += acked
	} else {
		// Congestion avoidance: ~1 MSS per RTT.
		inc := mss * mss / c.cwnd
		if inc == 0 {
			inc = 1
		}
		c.cwnd += inc
	}
}

// fastRetransmit reacts to triple duplicate ACKs.
func (c *Conn) fastRetransmit(s *Stack) {
	if c.retransLen(s) == 0 {
		return
	}
	t := c.flight(s)
	if t.inRecovery {
		// NewReno re-entry guard (RFC 6582): dup ACKs arriving during
		// recovery belong to the same loss window — the partial-ACK
		// path already retransmits the holes; halving cwnd again would
		// collapse it once per hole.
		return
	}
	s.FastRetransmits++
	mss := uint32(wire.MSS)
	fl := c.inFlight()
	half := fl / 2
	if half < 2*mss {
		half = 2 * mss
	}
	c.ssthresh = half
	c.cwnd = c.ssthresh
	t.inRecovery = true
	t.recoverSeq = c.sndNxt
	c.resend(s, &t.q[t.head])
	c.armRTO(s)
}

// processData handles payload: in-order delivery plus bounded reassembly.
func (c *Conn) processData(s *Stack, seq uint32, payload []byte, buf *mem.Mbuf) {
	if c.state != StateEstablished && c.state != StateFinWait1 && c.state != StateFinWait2 {
		return
	}
	end := seq + uint32(len(payload))
	if seqLE(end, c.rcvNxt) {
		// Entirely old: re-ACK.
		c.scheduleAck(s)
		return
	}
	if seqLT(seq, c.rcvNxt) {
		// Partial overlap: trim the old prefix.
		drop := seqDiff(c.rcvNxt, seq)
		payload = payload[drop:]
		seq = c.rcvNxt
	}
	wnd := uint32(c.rcvWndAvail(s))
	if !seqInWindow(seq, c.rcvNxt, wnd+1) {
		// Beyond our window: drop, re-ACK (window probe handling).
		c.scheduleAck(s)
		return
	}
	if avail := seqDiff(c.rcvNxt+wnd, seq+uint32(len(payload))); avail < 0 {
		payload = payload[:len(payload)+int(avail)]
	}
	if len(payload) == 0 {
		c.scheduleAck(s)
		return
	}
	if seq == c.rcvNxt {
		c.deliver(s, payload, buf)
		c.drainReasm(s)
		c.scheduleDataAck(s)
	} else {
		s.OutOfOrderSegs++
		c.insertReasm(s, seq, payload, buf)
		// RFC 5681: an out-of-order segment generates an immediate
		// duplicate ACK so the sender's fast retransmit can count it —
		// it must not be coalesced with other ACKs at Flush.
		c.sendAckNow(s)
	}
}

// sendAckNow emits a pure ACK immediately (duplicate ACKs for loss
// recovery must not be batched).
func (c *Conn) sendAckNow(s *Stack) {
	c.cancelDelAck(s)
	c.flags &^= needAck
	hdr := &s.hdr
	*hdr = c.makeHeader(s, c.sndNxt, wire.TCPAck)
	s.emit(c, hdr, nil)
}

// deliver hands in-order bytes to the application (zero-copy) and
// advances rcvNxt; the window shrinks until RecvDone.
func (c *Conn) deliver(s *Stack, payload []byte, buf *mem.Mbuf) {
	c.rcvNxt += uint32(len(payload))
	c.unconsumed += int32(len(payload))
	s.cfg.Events.Recv(c, buf, payload)
}

// insertReasm stores an out-of-order segment (bounded queue, sorted).
func (c *Conn) insertReasm(s *Stack, seq uint32, payload []byte, buf *mem.Mbuf) {
	const maxReasm = 64
	f := c.borrow(s)
	q := f.reasm
	if q == nil {
		q = &reasmQ{}
		f.reasm = q
	}
	if len(q.segs) >= maxReasm {
		return
	}
	for _, rs := range q.segs {
		if rs.seq == seq {
			return // duplicate
		}
	}
	if buf != nil {
		buf.Ref()
	}
	ins := rxSeg{seq: seq, data: payload, buf: buf}
	pos := len(q.segs)
	for i, rs := range q.segs {
		if seqLT(seq, rs.seq) {
			pos = i
			break
		}
	}
	q.segs = append(q.segs, rxSeg{})
	copy(q.segs[pos+1:], q.segs[pos:])
	q.segs[pos] = ins
	q.bytes += int32(len(payload))
}

// drainReasm delivers now-in-order segments from the reassembly queue.
func (c *Conn) drainReasm(s *Stack) {
	f := c.flight(s)
	if f == nil || f.reasm == nil {
		return
	}
	q := f.reasm
	for len(q.segs) > 0 {
		rs := q.segs[0]
		if seqGT(rs.seq, c.rcvNxt) {
			return
		}
		q.segs = q.segs[1:]
		q.bytes -= int32(len(rs.data))
		data := rs.data
		if seqLT(rs.seq, c.rcvNxt) {
			drop := seqDiff(c.rcvNxt, rs.seq)
			if int(drop) >= len(data) {
				if rs.buf != nil {
					rs.buf.Unref()
				}
				continue
			}
			data = data[drop:]
		}
		c.deliver(s, data, rs.buf)
		if rs.buf != nil {
			rs.buf.Unref() // deliver took its own semantics; see Recv contract
		}
	}
	// Fully drained: drop the queue. Reordering is the exception on
	// this fabric, so holding a burst's worth of rxSeg capacity on every
	// connection that ever saw one would bleed the bytes/conn budget.
	f.reasm = nil
}

// processFin handles a peer FIN at sequence finSeq.
func (c *Conn) processFin(s *Stack, finSeq uint32) {
	if seqGT(finSeq, c.rcvNxt) {
		// FIN beyond in-order point (data missing): ignore; peer will
		// retransmit.
		return
	}
	if c.has(finRcvd) {
		c.scheduleAck(s)
		return
	}
	c.flags |= finRcvd
	c.rcvNxt = finSeq + 1
	c.scheduleAck(s)
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
		s.cfg.Events.RemoteClosed(c)
	case StateFinWait1:
		c.state = StateClosing
	case StateFinWait2:
		c.enterTimeWait(s)
	}
}

// maybeFinish advances closing states once our FIN is acked.
func (c *Conn) maybeFinish(s *Stack, ack uint32) {
	finAcked := c.has(finQueued) && c.retransLen(s) == 0 && ack == c.sndNxt
	switch c.state {
	case StateFinWait1:
		if finAcked {
			if c.has(finRcvd) {
				c.enterTimeWait(s)
			} else {
				c.state = StateFinWait2
			}
		}
	case StateClosing:
		if finAcked {
			c.enterTimeWait(s)
		}
	case StateLastAck:
		if finAcked {
			c.destroy(s, ReasonClosed)
		}
	}
}

func (c *Conn) enterTimeWait(s *Stack) {
	c.state = StateTimeWait
	c.cancelRTO(s)
	f := c.borrow(s)
	f.timer = s.cfg.Wheel.AddArg(s.cfg.Now()+int64(s.cfg.TimeWait), connTimeWait, f)
}

// onTimeWait ends the 2MSL quiet period.
func (c *Conn) onTimeWait(s *Stack) {
	c.flight(s).timer = nil
	c.destroy(s, ReasonClosed)
}

// Sendv accepts and at once segments as many bytes of a scatter-gather
// array as the usable window allows and returns the count, possibly 0
// (IX sendv). The slices stay immutable until acknowledged (§4.5). backs,
// if not nil, names the pooled memory each slice lies in: a segment cut
// from one backed slice leaves in frames that carry it by reference.
//
//ix:hotpath
func (c *Conn) Sendv(bufs [][]byte, backs []fabric.Backing) int {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return 0
	}
	budget := c.UsableWindow()
	if budget <= 0 {
		return 0
	}
	total := 0
	mss := wire.MSS
	s := c.stack()
	// Assemble MSS-sized segments from the scatter-gather array in the
	// stack's reusable scratch; sendData moves the fragment references
	// into the tracked segment, so the scratch recycles per segment.
	seg := s.sg[:0]
	segLen := 0
	var back fabric.Backing // of seg's first fragment
	//ixvet:ignore(hotpath) closure never escapes: called only below, so it stays on the stack (TestZeroAllocSteadySend pins it)
	flush := func() {
		if segLen == 0 {
			return
		}
		if len(seg) > 1 {
			back = nil // gathered from several fragments: copied
		}
		c.sendData(s, seg, segLen, back)
		seg = seg[:0]
		segLen = 0
	}
	for i, b := range bufs {
		for len(b) > 0 && budget > 0 {
			if len(seg) == 0 {
				back = nil
				if backs != nil {
					back = backs[i]
				}
			}
			take := len(b)
			if take > mss-segLen {
				take = mss - segLen
			}
			if take > budget {
				take = budget
			}
			seg = append(seg, b[:take])
			segLen += take
			total += take
			budget -= take
			b = b[take:]
			if segLen == mss {
				flush()
			}
		}
		if budget <= 0 {
			break
		}
	}
	flush()
	s.sg = seg[:0]
	return total
}

// Send is a convenience wrapper over Sendv for a single buffer.
func (c *Conn) Send(b []byte) int { return c.Sendv([][]byte{b}, nil) }

// sendData emits one data segment and tracks it for retransmission,
// capturing the fragment references of the caller's scratch payload.
// back is the pooled memory a one-fragment payload lies in, or nil.
//
//ix:hotpath
func (c *Conn) sendData(s *Stack, payload [][]byte, length int, back fabric.Backing) {
	seq := c.sndNxt
	c.sndNxt += uint32(length)
	ts := txSeg{seq: seq, length: length, back: back}
	ts.setPayload(payload)
	t := c.borrow(s)
	t.q = append(t.q, ts)
	if !t.rttPending {
		t.rttPending = true
		t.rttSeq = c.sndNxt
		t.rttStart = s.cfg.Now()
	}
	hdr := &s.hdr
	*hdr = c.makeHeader(s, seq, wire.TCPAck|wire.TCPPsh)
	c.flags &^= needAck // piggybacked
	c.cancelDelAck(s)
	s.emitData(c, hdr, payload, back)
	c.armRTO(s)
}

// Close initiates an orderly close (FIN). Further sends are rejected.
func (c *Conn) Close() {
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	case StateSynSent, StateSynRcvd:
		c.Abort()
		return
	default:
		return
	}
	c.sendFIN(c.stack())
}

// Abort closes with RST (used by the benchmarks to avoid exhausting
// ephemeral ports, as in §5.3) and destroys the connection immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	s := c.stack()
	hdr := c.makeHeader(s, c.sndNxt, wire.TCPRst|wire.TCPAck)
	s.emit(c, &hdr, nil)
	c.destroy(s, ReasonClosed)
}

func (c *Conn) sendFIN(s *Stack) {
	c.flags |= finQueued
	seq := c.sndNxt
	c.sndNxt++
	f := c.borrow(s)
	f.q = append(f.q, txSeg{seq: seq, fin: true})
	hdr := c.makeHeader(s, seq, wire.TCPFin|wire.TCPAck)
	c.flags &^= needAck
	c.cancelDelAck(s)
	s.emit(c, &hdr, nil)
	c.armRTO(s)
}

// RecvDone returns n received bytes, reopening the receive window
// (recv_done). A window update is owed only when the window grew by an
// MSS from below a quarter of its size, where the peer may have stalled.
func (c *Conn) RecvDone(n int) {
	if c.state == StateClosed {
		return
	}
	s := c.stack()
	prev := c.rcvWndAvail(s)
	c.unconsumed -= int32(n)
	if c.unconsumed < 0 {
		c.unconsumed = 0
	}
	now := c.rcvWndAvail(s)
	if prev < s.cfg.RcvWnd/4 && now-prev >= wire.MSS {
		c.scheduleAck(s)
	}
}

// makeHeader builds a header for the current state.
func (c *Conn) makeHeader(s *Stack, seq uint32, flags uint8) wire.TCPHeader {
	wnd := c.rcvWndAvail(s) >> wndShift
	if wnd > 0xffff {
		wnd = 0xffff
	}
	return wire.TCPHeader{
		SrcPort: c.key.SrcPort,
		DstPort: c.key.DstPort,
		Seq:     seq,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  uint16(wnd),
		WScale:  -1,
	}
}

// sendFlags emits a control segment (SYN, SYN|ACK) with options through
// the stack's header scratch.
func (c *Conn) sendFlags(s *Stack, flags uint8, seq, ack uint32, withOpts bool) {
	wnd := c.rcvWndAvail(s)
	hdr := &s.hdr
	*hdr = wire.TCPHeader{
		SrcPort: c.key.SrcPort,
		DstPort: c.key.DstPort,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		WScale:  -1,
	}
	if withOpts {
		hdr.MSS = wire.MSS
		hdr.WScale = wndShift
		// SYN windows are unscaled.
		if wnd > 0xffff {
			wnd = 0xffff
		}
		hdr.Window = uint16(wnd)
	} else {
		w := wnd >> wndShift
		if w > 0xffff {
			w = 0xffff
		}
		hdr.Window = uint16(w)
	}
	s.emit(c, hdr, nil)
	// SYN and SYN|ACK retransmission is driven by connection state in
	// onRTO rather than the retransmission queue.
}

// scheduleSynAck marks an admitted embryonic connection as owing its
// SYN-ACK at the next Flush, on the same pending list pure ACKs use.
func (c *Conn) scheduleSynAck(s *Stack) {
	c.flags |= synAckOwed
	c.queueAck(s)
}

// queueAck puts the connection on the stack's pending list for Flush,
// once.
func (c *Conn) queueAck(s *Stack) {
	if !c.has(inAckLst) {
		c.flags |= inAckLst
		s.needsAck = append(s.needsAck, c.id)
	}
}

// scheduleAck owes a pure ACK to the next Flush, undelayed.
func (c *Conn) scheduleAck(s *Stack) {
	c.cancelDelAck(s)
	c.flags |= needAck
	c.queueAck(s)
}

// scheduleDataAck acknowledges in-order data: immediately when delayed
// ACKs are off or every second segment, otherwise after the delack
// timeout — unless a data segment piggybacks it first.
func (c *Conn) scheduleDataAck(s *Stack) {
	da := s.cfg.DelAck
	if da <= 0 {
		c.scheduleAck(s)
		return
	}
	if c.has(daSeg) {
		c.scheduleAck(s)
		return
	}
	c.flags |= daSeg
	if f := c.borrow(s); f.daTimer == nil {
		f.daTimer = s.cfg.Wheel.AddArg(s.cfg.Now()+int64(da), connDelAck, f)
	}
}

// onDelAck fires the delayed-acknowledgment timeout. The ACK it owes
// leaves at the next Flush, which settles the flight afterwards.
func (c *Conn) onDelAck(s *Stack) {
	c.flight(s).daTimer = nil
	if c.state != StateClosed {
		c.scheduleAck(s)
	}
}

func (c *Conn) cancelDelAck(s *Stack) {
	c.flags &^= daSeg
	if f := c.flight(s); f != nil && f.daTimer != nil {
		s.cfg.Wheel.Cancel(f.daTimer)
		f.daTimer = nil
	}
}

// Flush emits the batch's pending pure ACKs and SYN-ACKs at its end, so
// acknowledgments follow application progress (§3).
func (s *Stack) Flush() {
	for _, id := range s.needsAck {
		c := s.arena.lookup(id)
		if c == nil {
			continue // died since it was queued
		}
		c.flags &^= inAckLst
		if c.has(synAckOwed) {
			c.flags &^= synAckOwed
			if c.state == StateSynRcvd {
				c.sendFlags(s, wire.TCPSyn|wire.TCPAck, c.sndUna, c.rcvNxt, true)
			}
			continue
		}
		if c.has(needAck) && c.state != StateClosed {
			c.flags &^= needAck | daSeg
			hdr := &s.hdr
			*hdr = c.makeHeader(s, c.sndNxt, wire.TCPAck)
			s.emit(c, hdr, nil)
			c.settle(s)
		}
	}
	s.needsAck = s.needsAck[:0]
}

// emit sends a segment through the configured output.
func (s *Stack) emit(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {
	s.SegsOut++
	s.cfg.Output(c, hdr, payload)
}

// emitData sends a data segment whose payload lies in back (nil: in no
// pooled memory, or in several fragments).
func (s *Stack) emitData(c *Conn, hdr *wire.TCPHeader, payload [][]byte, back fabric.Backing) {
	s.back = back
	s.emit(c, hdr, payload)
	s.back = nil
}

// PayloadBacking returns, while Output emits a data segment, the pooled
// memory its one-fragment payload lies in, or nil. A frame carrying the
// payload by reference pins it (fabric.Frame.Carry).
func (s *Stack) PayloadBacking() fabric.Backing { return s.back }

// sendRST answers an unexpected segment with RST. key is the *local*
// view of the flow the RST responds to.
func (s *Stack) sendRST(key connKey, in *wire.TCPHeader, payloadLen int) {
	hdr := wire.TCPHeader{
		SrcPort: key.SrcPort,
		DstPort: key.DstPort,
		Flags:   wire.TCPRst | wire.TCPAck,
		Ack:     in.Seq + uint32(payloadLen),
		WScale:  -1,
	}
	if in.Flags&wire.TCPSyn != 0 {
		hdr.Ack++
	}
	if in.Flags&wire.TCPAck != 0 {
		hdr.Seq = in.Ack
	}
	s.SegsOut++
	// The PCB Output sees is outside the arena: only its key and
	// (closed) state are meaningful.
	s.cfg.Output(&Conn{key: key}, &hdr, nil)
}

// Migrate moves the connection id names from s to dst, another elastic
// thread's stack (§4.4 flow re-balancing), and returns its id there: the
// PCB is copied into dst's arena and its slot here freed, so id goes
// stale. Its flight moves into dst's directory with its timers, and s
// keeps a pooled flight in exchange. The caller ensures quiescence.
func (s *Stack) Migrate(id ConnID, dst *Stack) ConnID {
	c := s.Conn(id)
	if c == nil || dst == s {
		return id
	}
	// Re-home pending timers, preserving their original deadlines (timer
	// continuity): a retransmission, TIME_WAIT or delayed-ACK deadline
	// set before the migration fires at the same virtual time on the
	// destination wheel. Fired/cancelled timers are dropped. A queued
	// handshake deadline leaves this stack's synQ and is re-armed below as
	// an ordinary timer on dst's wheel.
	synDeadline := int64(-1)
	if c.has(synTimed) {
		for _, e := range s.synQ[s.synHead:] {
			if e.id == id {
				synDeadline = e.deadline
				break
			}
		}
		c.cancelSynRTO(s)
	}
	if f := c.flight(s); f != nil {
		for _, t := range []**timerwheel.Timer{&f.timer, &f.daTimer} {
			if *t != nil && !s.cfg.Wheel.Transfer(*t, dst.cfg.Wheel) {
				*t = nil
			}
		}
	}
	if c.has(inAckLst) {
		// Drop from our pending-ACK list; re-add on destination.
		for i, pid := range s.needsAck {
			if pid == id {
				s.needsAck = append(s.needsAck[:i], s.needsAck[i+1:]...)
				break
			}
		}
		c.flags &^= inAckLst
	}
	// An owed SYN-ACK migrates with the connection (embryonic
	// connections are not normally migrated, but the owed reply must
	// not be lost if one is).
	reownSynAck := c.has(synAckOwed)
	if c.state == StateSynRcvd {
		// The backlog count follows the connection to the destination's
		// listener on the port.
		s.embryonicDone(c.key.SrcPort)
		if l := dst.listener(c.key.SrcPort); l != nil {
			l.embryonic++
		}
	}
	s.conns.del(c.key)
	nc := dst.arena.alloc()
	nid := nc.id
	*nc = *c
	nc.id = nid
	if c.fl != 0 {
		fl := dst.getFlight()
		s.flights[c.fl-1], dst.flights[fl-1] = dst.flights[fl-1], s.flights[c.fl-1]
		s.flightFree = append(s.flightFree, c.fl)
		dst.flights[fl-1].c = nc
		nc.fl = fl
	}
	s.arena.release(c)
	c = nc
	dst.conns.put(c)
	if synDeadline >= 0 {
		f := c.borrow(dst)
		f.timer = dst.cfg.Wheel.AddArg(synDeadline, connRTO, f)
	}
	if c.retransLen(dst) > 0 && c.flight(dst).timer == nil && c.state != StateTimeWait {
		// Unacked data without a live timer (should not happen, but a
		// lost RTO would hang the flow forever): re-arm defensively.
		c.armRTO(dst)
	}
	if c.has(needAck) || reownSynAck {
		c.queueAck(dst)
	}
	return c.id
}

// EachConn calls fn for every live connection in table slot order, for
// tallies; fn must not open, close or migrate connections.
func (s *Stack) EachConn(fn func(*Conn)) {
	for _, e := range s.conns.slots {
		if e != 0 {
			fn(s.arena.at(e & slotMask))
		}
	}
}

// Conns returns the live connections' ids sorted by flow key: migration
// walks them, and their order reaches handle numbering and event order,
// so it is the keys', not the table layout's.
func (s *Stack) Conns() []ConnID {
	out := make([]ConnID, 0, s.conns.n)
	s.EachConn(func(c *Conn) { out = append(out, c.id) })
	slices.SortFunc(out, func(i, j ConnID) int {
		a, b := s.arena.at(i.Slot()).key, s.arena.at(j.Slot()).key
		return cmp.Or(cmp.Compare(a.SrcIP, b.SrcIP), cmp.Compare(a.DstIP, b.DstIP),
			cmp.Compare(a.SrcPort, b.SrcPort), cmp.Compare(a.DstPort, b.DstPort))
	})
	return out
}

// armRTO (re)arms the retransmission timer, moving a pending one in
// place (timerwheel.Wheel.Reset).
func (c *Conn) armRTO(s *Stack) {
	w := s.cfg.Wheel
	deadline := s.cfg.Now() + int64(c.rto)
	f := c.borrow(s)
	if f.timer != nil && w.Reset(f.timer, deadline) {
		return
	}
	f.timer = w.AddArg(deadline, connRTO, f)
}

// cancelRTO cancels the timer slot: the RTO, or in TIME_WAIT (reached
// only from destroy) the 2MSL timer — or, for an embryonic connection,
// its queued handshake deadline.
func (c *Conn) cancelRTO(s *Stack) {
	if c.has(synTimed) {
		c.cancelSynRTO(s)
		return
	}
	if f := c.flight(s); f != nil && f.timer != nil {
		s.cfg.Wheel.Cancel(f.timer)
		f.timer = nil
	}
}

// onRTO fires the retransmission timeout. The timer is re-armed (the
// connection borrows a flight for it, if it had none: a first handshake
// timeout comes from synQ), or the connection dies.
func (c *Conn) onRTO(s *Stack) {
	if c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	c.rexmitCount++
	if int(c.rexmitCount) > s.cfg.MaxRexmits {
		c.destroy(s, ReasonTimeout)
		return
	}
	s.Retransmits++
	// Exponential backoff; collapse cwnd (Tahoe-style on timeout).
	c.rto = rttNs(2 * time.Duration(c.rto))
	mss := uint32(wire.MSS)
	half := c.inFlight() / 2
	if half < 2*mss {
		half = 2 * mss
	}
	c.ssthresh = half
	c.cwnd = mss
	switch c.state {
	case StateSynSent:
		c.sendFlags(s, wire.TCPSyn, c.sndUna, 0, true)
	case StateSynRcvd:
		c.sendFlags(s, wire.TCPSyn|wire.TCPAck, c.sndUna, c.rcvNxt, true)
	default:
		// resend drops the pending RTT sample (Karn); with nothing
		// tracked there is none.
		if c.retransLen(s) > 0 {
			f := c.flight(s)
			f.inRecovery = true
			f.recoverSeq = c.sndNxt
			c.resend(s, &f.q[f.head])
		}
	}
	c.armRTO(s)
}

// synEntry is one queued handshake deadline (Stack.synQ) and the place
// in the wheel's firing order a timer of its own would have taken.
type synEntry struct {
	deadline int64
	id       ConnID
	place    uint32
}

// armSynRTO queues an embryonic connection's first retransmission
// deadline on synQ with the place a timer of its own would take in the
// wheel, borrowing no flight. A wheel too far behind to reserve a place
// gets an ordinary timer.
//
//ix:hotpath
func (c *Conn) armSynRTO(s *Stack) {
	w := s.cfg.Wheel
	deadline := s.cfg.Now() + int64(initialRTO)
	place, ok := w.Reserve(deadline)
	if !ok {
		c.armRTO(s)
		return
	}
	c.flags |= synTimed
	s.synQ = append(s.synQ, synEntry{id: c.id, deadline: deadline, place: place})
	if s.synTimer == nil {
		s.synTimer = w.AddArgAt(deadline, place, stackSynRTO, s)
	}
}

// cancelSynRTO disarms a queued handshake deadline, re-timing the queue
// if it was the head.
//
//ix:hotpath
func (c *Conn) cancelSynRTO(s *Stack) {
	c.flags &^= synTimed
	if s := s; s.synQ[s.synHead].id == c.id {
		s.retimeSynQ()
	}
}

// retimeSynQ drops the dead entries at synQ's head (disarmed, or their
// connection gone) and puts synTimer on the first live deadline and its
// place, or cancels it. A dead prefix of half the queue is compacted.
//
//ix:hotpath
func (s *Stack) retimeSynQ() {
	q, h := s.synQ, s.synHead
	for h < len(q) {
		if c := s.arena.lookup(q[h].id); c != nil && c.has(synTimed) {
			break
		}
		q[h] = synEntry{}
		h++
	}
	w := s.cfg.Wheel
	if h == len(q) {
		s.synQ, s.synHead = q[:0], 0
		if s.synTimer != nil {
			w.Cancel(s.synTimer)
			s.synTimer = nil
		}
		return
	}
	if h >= 32 && 2*h >= len(q) {
		n := copy(q, q[h:])
		clear(q[n:])
		q, h = q[:n], 0
	}
	s.synQ, s.synHead = q, h
	if e := q[h]; s.synTimer == nil || !w.ResetAt(s.synTimer, e.deadline, e.place) {
		s.synTimer = w.AddArgAt(e.deadline, e.place, stackSynRTO, s)
	}
}

// onSynRTO fires the head entry's timeout and re-times the queue; the
// fired connection's retransmissions use ordinary timers. An entry due
// in the same tick gets the timer back at its own place in the slot
// being fired, so this Advance fires it too.
func (s *Stack) onSynRTO() {
	s.synTimer = nil
	c := s.arena.at(s.synQ[s.synHead].id.Slot())
	s.synQ[s.synHead] = synEntry{}
	s.synHead++
	c.flags &^= synTimed
	c.onRTO(s)
	s.retimeSynQ()
}

// resend retransmits one tracked segment from its fragment references:
// retransmission is zero-copy too.
func (c *Conn) resend(s *Stack, ts *txSeg) {
	c.flight(s).rttPending = false // Karn's rule: no sample from retransmitted data
	var flags uint8 = wire.TCPAck
	if ts.fin {
		flags |= wire.TCPFin
	} else if ts.length > 0 {
		flags |= wire.TCPPsh
	}
	hdr := &s.hdr
	*hdr = c.makeHeader(s, ts.seq, flags)
	sg := ts.appendPayload(s.sg[:0])
	s.emitData(c, hdr, sg, ts.back)
	s.sg = sg[:0]
}

// destroy tears the connection down, reports Connected(false) for a
// failed active open or Dead otherwise, once, then frees its slot.
func (c *Conn) destroy(s *Stack, reason Reason) {
	if c.state == StateClosed {
		return
	}
	prev := c.state
	c.state = StateClosed
	c.cancelRTO(s) // the 2MSL timer too: it shares the slot
	c.cancelDelAck(s)
	if prev == StateSynRcvd {
		s.embryonicDone(c.key.SrcPort)
	}
	if f := c.flight(s); f != nil {
		// Release reassembly references.
		if q := f.reasm; q != nil {
			for _, rs := range q.segs {
				if rs.buf != nil {
					rs.buf.Unref()
				}
			}
		}
		// Drop the retransmission queue's payload references: after Dead
		// the sender reclaims its arena wholesale. putFlight zeroes the
		// inline array and drops any spilled backing, so the references
		// die with it.
		s.putFlight(c.fl)
		c.fl = 0
	}
	s.conns.del(c.key)
	if prev == StateSynSent {
		s.cfg.Events.Connected(c, false)
	} else {
		s.cfg.Events.Dead(c, reason)
	}
	s.arena.release(c)
}
