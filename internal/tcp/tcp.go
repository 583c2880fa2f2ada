// Package tcp is a from-scratch TCP protocol engine playing the role lwIP
// played in IX (§4.2): RFC-style connection management (three-way
// handshake, sliding windows, retransmission with Jacobson RTT estimation
// and exponential backoff, fast retransmit, slow start and congestion
// avoidance, reassembly, FIN/RST teardown), restructured — as the paper
// describes — for per-core shared-nothing operation and fine-grained
// timer management.
//
// One Stack instance exists per elastic thread (or per kernel core for the
// baselines); instances share nothing. The engine is policy-free about
// execution: the embedding OS model supplies the clock, a timer wheel, an
// output function, and receives events through callbacks. Crucially for
// IX semantics:
//
//   - Sendv accepts only the bytes permitted by the congestion and peer
//     windows and transmits them immediately (the paper's "returns the
//     number of bytes that were accepted and sent by the TCP stack");
//     the application owns all send buffering policy.
//   - Received payload is delivered as zero-copy references into mbufs;
//     the receive window advances only when the application returns
//     buffers via RecvDone (the recv_done batched system call).
//   - Pure ACKs are emitted at Flush, called by the OS model at the end
//     of a processing batch — "the networking stack sends acknowledgments
//     to peers only as fast as the application can process them" (§3).
package tcp

import (
	"errors"
	"fmt"
	"sort"
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

func (r Reason) String() string {
	switch r {
	case ReasonClosed:
		return "closed"
	case ReasonReset:
		return "reset"
	case ReasonTimeout:
		return "timeout"
	case ReasonRefused:
		return "refused"
	}
	return "unknown"
}

// Events receives protocol events. The OS architecture model implements
// this to surface event conditions (Table 1) to applications.
type Events interface {
	// Accepted fires when a remotely initiated connection completes the
	// handshake.
	Accepted(c *Conn)
	// Connected fires when a locally initiated connection finishes
	// opening (outcome true) or fails (false).
	Connected(c *Conn, ok bool)
	// Recv delivers in-order payload as a zero-copy view into buf. The
	// receiver must Ref the buf if it holds it past the callback, and
	// the receive window stays closed until RecvDone returns the bytes.
	Recv(c *Conn, buf *mem.Mbuf, data []byte)
	// Sent fires when previously accepted bytes are acknowledged and/or
	// the usable send window grows (the sent event condition). released
	// is the payload-byte count of transmit segments this cumulative ACK
	// fully covered: the stack has dropped every reference to those
	// bytes, so the zero-copy sender may reclaim them (the ACK-driven
	// release hook of the tx arena). released never exceeds acked and
	// lags it while a segment is only partially acknowledged.
	Sent(c *Conn, acked, released int)
	// RemoteClosed fires when the peer sends FIN (half-close); the
	// usual response is to Close. libix maps it to an EOF-style event.
	RemoteClosed(c *Conn)
	// Dead fires when the connection terminates.
	Dead(c *Conn, reason Reason)
}

// Output is how the stack emits segments: the embedding layer prepends
// IP/Ethernet framing and hands the frame to its NIC queue. payload
// slices are owned by the application (zero-copy transmit) and must be
// treated as immutable. The payload slice-of-slices itself is a scratch
// the stack reuses across segments: Output must consume it before
// returning. A single-fragment payload may be carried by reference
// rather than copied, pinning the memory PayloadBacking names.
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
	// PortOK, if set, filters ephemeral port choices; IX client threads
	// use it to probe ports whose RSS hash (for the return direction of
	// the flow to dst:dport) lands on this thread's queue (§4.4: "we
	// simply probe the ephemeral port range").
	PortOK func(port uint16, dst wire.IPv4, dport uint16) bool
	// Seed initializes the ISS generator (deterministic).
	Seed uint64
	// MinRTO bounds the retransmission timeout from below. The paper
	// supports timeouts as low as 16 µs for incast; default 200 µs.
	MinRTO time.Duration
	// MaxRexmits is the retransmission limit before the connection dies
	// with ReasonTimeout (default 8, at most maxRexmits).
	MaxRexmits int
	// TimeWait is the 2MSL quiet period (scaled down for simulation;
	// default 1 ms). The echo benchmarks avoid it with RST closes, as
	// in the paper.
	TimeWait time.Duration
	// SynBacklog bounds embryonic connections per listener (default 1024).
	SynBacklog int
	// ExpectedConns presizes the connection table for the anticipated
	// steady-state flow population (0 = grow on demand). Presizing
	// avoids the doubling churn of ramping to a large population.
	ExpectedConns int
	// DelAck, when positive, enables delayed acknowledgments: a pure
	// ACK for in-order data is deferred up to this long (or until a
	// second segment arrives, per RFC 1122), giving responses a chance
	// to piggyback it. The Linux baseline uses this; IX does not need
	// it — its ACKs are already paced by application progress (§3).
	DelAck time.Duration
}

// Default window/limits.
const (
	defaultRcvWnd  = 256 << 10
	defaultMinRTO  = 200 * time.Microsecond
	defaultRexmits = 8
	// maxRexmits bounds MaxRexmits so the count that exceeds it fits
	// Conn.rexmitCount's byte.
	maxRexmits     = 254
	defaultTW      = time.Millisecond
	defaultBacklog = 1024
	initialRTO     = time.Millisecond
	// maxRTO caps the retransmission timeout (and with it the stored RTT
	// estimator: 4 s of nanoseconds fits 32 bits).
	maxRTO = 4 * time.Second
	// initialCwnd is IW10 in segments.
	initialCwnd = 10
	// wscale used on both directions (fixed shift covering 256 KB).
	wndShift = 3
)

// Stack is a shared-nothing TCP instance: one per elastic thread.
type Stack struct {
	cfg   Config
	conns flowTable
	// listeners holds one entry per listening port: a handful at most,
	// so a scan beats hashing the port.
	listeners []*Listener
	needsAck  []*Conn
	isn       uint64
	nextPort  uint16
	// sg is the scratch scatter-gather array segments are assembled in
	// before their fragment references move into the txSeg; reused so
	// steady-state transmit does not allocate.
	sg [][]byte
	// hdr is the scratch header the hot emit paths fill: passing a
	// stack-local header into the dynamic Output func forces it to the
	// heap, one hidden allocation per segment. Emissions never nest
	// (Output builds a frame and returns), so one scratch is safe.
	hdr wire.TCPHeader
	// back is the backing of the segment Output is emitting
	// (PayloadBacking), nil outside a data segment's emission.
	back fabric.Backing
	// flightFree recycles flight objects between connections with
	// something pending (LIFO, so the hot objects stay cache-warm).
	flightFree []*flight
	// synQ holds each embryonic connection's first SYN or SYN-ACK
	// retransmission deadline, from synHead on, in arming order. That
	// deadline is always the arming instant plus initialRTO, so arming
	// order is deadline order and one wheel timer, synTimer, serves the
	// whole queue: it is kept on the first live deadline, at the place in
	// the wheel's firing order the entry reserved when it was armed, and
	// nil exactly when no entry is live. A handshake that completes (or
	// dies) clears its connection's synTimed flag and leaves the entry
	// behind, dead; dead entries are dropped when they reach the head.
	synQ     []synEntry
	synHead  int
	synTimer *timerwheel.Timer

	// Stats.
	SegsIn, SegsOut uint64
	// OutOfOrderSegs counts data segments that arrived ahead of rcvNxt
	// and entered reassembly. On a lossless fabric this stays zero unless
	// something — e.g. a buggy flow migration — reorders a flow's frames,
	// so migration tests assert on it directly.
	OutOfOrderSegs  uint64
	Retransmits     uint64
	FastRetransmits uint64
	BadChecksums    uint64
	AcceptedConns   uint64
	// SynsAdmitted counts passive opens admitted through the batched
	// SYN path (their SYN-ACKs coalesce into the batch-boundary Flush).
	SynsAdmitted uint64
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
	return &Stack{
		cfg:      cfg,
		conns:    newFlowTable(cfg.ExpectedConns),
		isn:      cfg.Seed | 1,
		nextPort: 32768,
	}
}

// A Listener accepts connections on a local port.
type Listener struct {
	stack *Stack
	Port  uint16
	// Cookie is the opaque user value for knock events.
	Cookie    any
	embryonic int
}

// Listen starts accepting connections on port.
func (s *Stack) Listen(port uint16, cookie any) (*Listener, error) {
	if s.listener(port) != nil {
		return nil, fmt.Errorf("tcp: port %d already listening", port)
	}
	l := &Listener{stack: s, Port: port, Cookie: cookie}
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

// embryonicDone takes a connection leaving SynRcvd — the state only
// passiveOpen enters — off its port's backlog count. Connections find
// their listener by port rather than carry a pointer to it; a stack a
// connection migrated to without a listener on the port has no count to
// maintain.
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

// txSeg is one unacknowledged transmitted segment. It references the
// sender's bytes in place — (chunk, offset, len) references into the
// libix tx arena, or views into a kernel sndbuf for the baselines —
// rather than owning a copy: the zero-copy contract is that those bytes
// stay immutable until the segment is fully acknowledged and the
// reference dropped. The common segment is at most two fragments (one
// contiguous arena run, or one run spanning a chunk boundary), stored
// inline so tracking a segment does not allocate; pathological
// scatter-gather shapes spill to extra. back is the pooled memory a
// single-fragment segment lies in, when the sender named one: the frames
// that carry the segment by reference pin it. fin shares a word
// with seq, so back costs no bytes (TestConnStateSizes).
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

// retransInline is the flight's inline segment capacity: steady
// request-response traffic keeps at most a couple of segments in
// flight, so the queue almost never needs heap backing. Loss bursts
// and deep pipelining spill to an ordinary slice.
const retransInline = 2

// maxPooledSpill bounds the spilled backing a pooled flight keeps when
// its queue drains: the backing append grew for up to 64 segments is
// kept, so a bulk sender's 64 KiB flights (45 full segments) reuse one
// backing instead of regrowing it 2→64 per message. append rounds a
// capacity up to its allocation size class, so that backing holds a few
// more than 64; keepSpill accepts anything below the next doubling.
// Anything larger was grown by an unusual burst and is dropped.
const maxPooledSpill = 64

// keepSpill reports whether a drained queue's backing stays pooled.
func keepSpill(q []txSeg) bool {
	return cap(q) > retransInline && cap(q) < 2*maxPooledSpill
}

// flight is everything a connection holds only while something is
// pending: unacknowledged data, held out-of-order segments or an armed
// timer. An idle established connection has none of it, so it holds no
// flight at all: a connection borrows one
// from its stack's pool when the first of these appears and returns it,
// cleared, when all of them are gone (settle). The pool is LIFO, so the
// hot objects stay cache-warm, and it only ever holds objects that were
// borrowed at the same instant.
//
// The retransmission queue is a head-indexed ring over one backing
// array. The cumulative-ACK trim advances head (zeroing dropped
// segments so their payload references die); q aliases the inline
// array until a burst spills it, and a pooled flight keeps a spilled
// backing of up to maxPooledSpill segments. Beside the queue sit the
// scalars that mean something only while data is unacknowledged: the
// pending RTT sample and the NewReno loss-recovery state. Neither
// outlives a drained queue — the draining ACK takes the timed segment's
// sample, and a recovery ends at the ACK that covers every segment.
type flight struct {
	q []txSeg
	// RTT timing: one segment at a time (rttSeq is its end), sampled by
	// the ACK that covers it unless a retransmission intervened (Karn).
	rttStart int64

	// Timers. Callbacks are package-level trampolines passed through
	// timerwheel.AddArg with the connection as the argument: a bound
	// method value like c.onRTO would allocate a closure per arming (the
	// RTO re-arms once per transmitted segment) or pin three per-conn
	// closures for the connection's lifetime if bound once at setup.
	//
	// timer is the retransmission timer until TIME_WAIT and the 2MSL
	// timer in it: enterTimeWait cancels the RTO before arming the 2MSL
	// deadline, and nothing arms or cancels the RTO in TIME_WAIT (no
	// data or FIN is in flight there).
	timer   *timerwheel.Timer
	daTimer *timerwheel.Timer

	// reasm holds out-of-order segments; nil unless some are held.
	reasm *reasmQ

	// head is int32: the queue is bounded by the window's segments.
	head   int32
	rttSeq uint32
	// Loss recovery is NewReno (RFC 6582): while inRecovery, a partial
	// ACK (one below recoverSeq, the sndNxt at loss detection) means the
	// next hole is already known lost, so it is retransmitted immediately
	// instead of waiting out another full RTO — without this a k-segment
	// burst loss costs k serial timeouts, which at a 200 µs MinRTO floor
	// is exactly the incast collapse of §5.
	recoverSeq uint32
	// dupAcks is uint16: one increment per received duplicate ACK, reset
	// on any advance, so it is bounded by the segments a single flight
	// can produce (window/MSS ≪ 64k).
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

// clearTx empties the retransmission queue and resets the timing and
// recovery scalars beside it. No payload reference may survive. Entries
// before head and past len are always zero (the trim and the compaction
// zero what they drop), so only the live ones — a dead connection's —
// need clearing. A spill copies the inline entries aside but leaves
// their references behind, so a spilled queue zeroes the inline array
// too; its backing is kept if grown for up to maxPooledSpill segments,
// and a larger one is dropped by re-aliasing q to the inline array. The
// scalars reset too: a queue drained by the ACK that ends a recovery is
// still marked in recovery, and a dead connection's queue may still
// time a segment.
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

// getFlight pops a pooled flight (or builds the first).
func (s *Stack) getFlight() *flight {
	if n := len(s.flightFree); n > 0 {
		f := s.flightFree[n-1]
		s.flightFree[n-1] = nil
		s.flightFree = s.flightFree[:n-1]
		return f
	}
	f := &flight{}
	f.q = f.inl[:0:retransInline]
	return f
}

// putFlight clears f and returns it to the pool. It is the one place a
// flight is returned, from a connection that has settled or from
// destroy, whose timers are cancelled and whose held segments are
// released by then. Nothing the connection held survives into the pool,
// so a loss burst's spill is never pinned for a connection's lifetime.
func (s *Stack) putFlight(f *flight) {
	f.clearTx()
	f.timer, f.daTimer, f.reasm = nil, nil, nil
	s.flightFree = append(s.flightFree, f)
}

// borrow returns the connection's flight, borrowing one if it has none.
func (c *Conn) borrow() *flight {
	if c.fl == nil {
		c.fl = c.stack.getFlight()
	}
	return c.fl
}

// settle returns the connection's flight once nothing in it is pending.
// It runs where the stack hands control back after working on a
// connection — after each input segment and after each Flush emission —
// so a flight emptied part way through a segment's processing (a
// drained queue whose RTO is cancelled a few lines later) or between
// a delayed ACK's timeout and the Flush that sends it is returned once,
// at the end.
func (c *Conn) settle() {
	if f := c.fl; f != nil && f.idle() {
		c.fl = nil
		c.stack.putFlight(f)
	}
}

// rxSeg is an out-of-order segment held for reassembly.
type rxSeg struct {
	seq  uint32
	data []byte
	buf  *mem.Mbuf
}

// reasmQ is a connection's out-of-order hold queue. It exists only
// while segments are held: allocated on the first out-of-order arrival,
// dropped when the queue drains — reordering is the exception on this
// fabric, so a flight that never holds one pays a nil pointer for it.
// bytes, the payload held, is bounded by the receive window.
type reasmQ struct {
	segs  []rxSeg
	bytes int32
}

// Conn is a TCP connection. Fields are owned by the stack's thread.
//
// The layout rule, here and in every layer above (DESIGN.md,
// "Per-connection memory budget"): a field lives in the connection only
// if an idle established connection needs it. What exists only while
// something is pending — the retransmission queue with the RTT sample
// and loss-recovery scalars that time and repair it, held out-of-order
// segments, the timers and the retransmission count — sits in one
// borrowed flight that is nil when idle. The same rule gives the
// connection one owner id rather than a word per layer that might own
// it, and packs its booleans into one byte. Fields are ordered by
// alignment, widest first, so the struct carries no interior padding:
// 24 B of pointers and words, the 12 B key, 36 B of sequence, window
// and estimator state, 4 B of unconsumed bytes and 3 B of state and
// flags — 80 B, which TestConnStateSizes pins.
type Conn struct {
	stack *Stack

	// Cookie is the owning layer's id for the connection: the socket
	// core's table id on Linux and mTCP, the dune flow handle on IX
	// (whose capability entry holds the user's Table 1 cookie). A compact
	// integer rather than an interface box: 8 bytes inline, nothing to
	// scan, nothing pinned.
	Cookie uint64

	// fl is the borrowed flight: nil unless something is pending.
	fl *flight

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

	// RTT estimation. srtt, rttvar and rto are nanoseconds in 32 bits:
	// the RTO is capped at maxRTO (4 s), so nothing an estimator can
	// usefully hold exceeds it. The arithmetic runs in time.Duration and
	// clamps on store (rttNs). The pending sample lives in fl.
	srtt, rttvar uint32
	rto          uint32

	// Receive state. unconsumed is bounded by the receive window, so 32
	// bits hold it.
	rcvNxt     uint32
	unconsumed int32 // delivered to app, not yet RecvDone'd

	state      State
	peerWShift uint8
	flags      connFlags
	// rexmitCount counts consecutive retransmission timeouts; an ACK
	// that advances sndUna resets it. It fills the byte the alignment
	// would leave as padding, and it stays here rather than in fl: the
	// handshake's ACK does not reset it, so a connection whose SYN or
	// SYN-ACK was retransmitted carries a count until its first data is
	// acknowledged — in fl, that count would keep a flight borrowed by
	// an idle connection.
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
func (c *Conn) retransLen() int {
	if c.fl == nil {
		return 0
	}
	return len(c.fl.q) - int(c.fl.head)
}

// usableWindow returns how many more payload bytes the windows permit.
func (c *Conn) usableWindow() int {
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

// UsableWindow exposes the current usable send window (for the sent event
// condition's window_size parameter).
func (c *Conn) UsableWindow() int { return c.usableWindow() }

// rcvWndAvail computes the receive window to advertise: total minus bytes
// the application still holds (zero-copy flow control, §4.3).
func (c *Conn) rcvWndAvail() int {
	w := c.stack.cfg.RcvWnd - int(c.unconsumed)
	if f := c.fl; f != nil && f.reasm != nil {
		w -= int(f.reasm.bytes)
	}
	if w < 0 {
		w = 0
	}
	return w
}

// Connect initiates an active open to dst:port, returning the new
// connection in SynSent state with cookie as its owner id (Conn.Cookie).
// The Connected event reports the outcome.
// It is on the establishment fast path — the large Fig. 4 ramps open
// millions of connections through it — so beyond the connection object
// itself (newConn) it must not allocate: the table insert lands in
// presized slots and the SYN is assembled in the stack's shared
// header scratch (TestZeroAllocConnEstablish pins this).
//
//ix:hotpath
func (s *Stack) Connect(dst wire.IPv4, port uint16, cookie uint64) (*Conn, error) {
	lp, err := s.allocPort(dst, port)
	if err != nil {
		return nil, err
	}
	c := s.newConn(connKey{
		SrcIP: s.cfg.LocalIP, DstIP: dst,
		SrcPort: lp, DstPort: port,
	})
	c.Cookie = cookie
	c.state = StateSynSent
	c.sndNxt = c.sndUna + 1
	s.conns.put(c)
	c.sendFlags(wire.TCPSyn, c.sndUna, 0, true)
	c.armSynRTO()
	return c, nil
}

var errPortSpaceExhausted = errors.New("tcp: ephemeral port space exhausted")

// allocPort picks an ephemeral port not in use for the destination,
// honoring the PortOK probe. The uniqueness probe is an establishment-path
// table lookup; the exhaustion error is hoisted so the probe loop itself
// never allocates.
//
//ix:hotpath
func (s *Stack) allocPort(dst wire.IPv4, dport uint16) (uint16, error) {
	for tries := 0; tries < 8192; tries++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			// Recycle through the full user range (the p < 1024 guard
			// skips the reserved ports), not just 32768+: a shared-kernel
			// client host opening >32k connections to one destination
			// needs the widened ip_local_port_range, exactly as a real
			// load-generator host sets it. Allocation starts at 32768, so
			// runs that never exhaust the upper half are unaffected.
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

func (s *Stack) newConn(key connKey) *Conn {
	iss := s.nextISS()
	return &Conn{
		stack:    s,
		key:      key,
		sndUna:   iss,
		sndNxt:   iss,
		cwnd:     uint32(initialCwnd * wire.MSS),
		ssthresh: 1 << 30,
		rto:      rttNs(initialRTO),
	}
}

// Timer trampolines: package-level functions, so arming a timer stores
// only the connection (or stack) pointer (pointer-shaped any does not
// box).
func connTimeWait(v any) { v.(*Conn).onTimeWait() }
func connDelAck(v any)   { v.(*Conn).onDelAck() }
func stackSynRTO(v any)  { v.(*Stack).onSynRTO() }

func connRTO(v any) {
	c := v.(*Conn)
	c.fl.timer = nil
	c.onRTO()
}

// Input processes one incoming TCP segment. seg is the TCP header+payload
// bytes — the header alone when buf's frame carries the payload by
// reference (mem.Mbuf.Payload); buf is the backing mbuf (retained by
// reassembly/delivery via refcounts); src/dst are the IP addresses.
// Invalid segments are counted and dropped. The checksum is verified
// unless buf holds an intact frame (fabric.Frame.Intact), whose sum is
// offloaded and cannot fail: every frame whose bytes were written in
// flight is still checked, and none of those carries a payload by
// reference (fabric.Frame.Own). The
// connection-table demux here is both the per-message path and the
// establishment fast path (every handshake segment of a Fig. 4 ramp
// passes through it), so it must not allocate.
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
		c.input(&hdr, payload, buf)
		c.settle()
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

// passiveOpen handles SYN to a listener. The SYN-ACK is not emitted here
// but owed to the next Flush — batched SYN admission: a burst of SYNs
// arriving in one processing batch is admitted as a group, with every
// handshake reply assembled back-to-back through the stack's shared
// header scratch at the batch boundary (where pure ACKs already leave).
// The retransmission timer armed here covers the reply either way.
// Beyond the connection object itself (newConn) the SYN-accept path must
// not allocate: the table insert lands in presized slots
// (TestZeroAllocConnEstablish pins the whole passive handshake).
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
	c.scheduleSynAck()
	c.armSynRTO()
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
func (c *Conn) input(hdr *wire.TCPHeader, payload []byte, buf *mem.Mbuf) {
	s := c.stack
	// RST processing first.
	if hdr.Flags&wire.TCPRst != 0 {
		if c.state == StateSynSent {
			c.destroy(ReasonRefused)
		} else {
			c.destroy(ReasonReset)
		}
		return
	}
	switch c.state {
	case StateSynSent:
		if hdr.Flags&(wire.TCPSyn|wire.TCPAck) == wire.TCPSyn|wire.TCPAck {
			if hdr.Ack != c.sndUna+1 {
				s.sendRST(c.key, hdr, len(payload))
				c.destroy(ReasonRefused)
				return
			}
			c.rcvNxt = hdr.Seq + 1
			c.sndUna = hdr.Ack
			c.applyPeerOptions(hdr)
			c.state = StateEstablished
			c.cancelRTO()
			c.scheduleAck() // the handshake ACK
			s.cfg.Events.Connected(c, true)
		}
		return
	case StateSynRcvd:
		if hdr.Flags&wire.TCPAck != 0 && hdr.Ack == c.sndUna+1 {
			c.sndUna = hdr.Ack
			c.applyPeerOptions(hdr)
			c.state = StateEstablished
			c.cancelRTO()
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
		c.sendAckNow()
		return
	}

	// ACK processing for synchronized states.
	if hdr.Flags&wire.TCPAck != 0 {
		c.processAck(hdr)
		if c.state == StateClosed {
			return
		}
	}
	// Data processing.
	if len(payload) > 0 {
		c.processData(hdr.Seq, payload, buf)
	}
	// FIN processing.
	if hdr.Flags&wire.TCPFin != 0 {
		c.processFin(hdr.Seq + uint32(len(payload)))
	}
}

// processAck handles acknowledgement and window updates.
func (c *Conn) processAck(hdr *wire.TCPHeader) {
	s := c.stack
	ack := hdr.Ack
	prevUsable := c.usableWindow()
	c.applyPeerOptions(hdr)
	switch {
	case seqGT(ack, c.sndNxt):
		// Acks data never sent: protocol violation; answer with ACK.
		c.scheduleAck()
		return
	case seqLE(ack, c.sndUna):
		// Duplicate ACK. Data in flight is tracked in fl.
		if c.retransLen() > 0 && c.inFlight() > 0 && seqDiff(c.sndNxt, c.sndUna) > 0 {
			c.fl.dupAcks++
			if c.fl.dupAcks == 3 {
				c.fastRetransmit()
			}
		}
	default:
		acked := int(seqDiff(ack, c.sndUna))
		c.sndUna = ack
		c.rexmitCount = 0
		// The sample is taken before the trim, which clears the timing
		// and recovery state once the queue drains.
		c.updateRTT(ack)
		released := c.ackRetransQ(ack)
		c.growCwnd(uint32(acked))
		// A drained queue ended any recovery along with its state.
		if f := c.fl; f != nil {
			f.dupAcks = 0
			if f.inRecovery {
				if seqLT(ack, f.recoverSeq) {
					// Partial ACK: retransmit the next hole now.
					c.stack.Retransmits++
					c.resend(&f.q[f.head])
				} else {
					f.inRecovery = false
				}
			}
		}
		if c.retransLen() == 0 {
			c.cancelRTO()
		} else {
			c.armRTO()
		}
		// sent event condition: bytes acked and/or window growth.
		if acked > 0 || c.usableWindow() > prevUsable {
			s.cfg.Events.Sent(c, acked, released)
		}
		c.maybeFinish(ack)
	}
}

// ackRetransQ drops fully acknowledged segments, zeroing their entries
// so the zero-copy payload references die with them, and returns the
// payload bytes released — the count the sent event condition carries
// so the sender's arena can reclaim (tx_sent). The trim advances the
// ring head; a fully drained queue is cleared, spill and scalars with
// it, so the flight settles back to the stack pool once its timers are
// disarmed too (and a loss burst's spilled backing cannot outlive the
// burst).
func (c *Conn) ackRetransQ(ack uint32) int {
	t := c.fl
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
func (c *Conn) updateRTT(ack uint32) {
	t := c.fl
	if t == nil || !t.rttPending || seqLT(ack, t.rttSeq) {
		return
	}
	t.rttPending = false
	sample := time.Duration(c.stack.cfg.Now() - t.rttStart)
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
	if rto < c.stack.cfg.MinRTO {
		rto = c.stack.cfg.MinRTO
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
func (c *Conn) fastRetransmit() {
	if c.retransLen() == 0 {
		return
	}
	t := c.fl
	if t.inRecovery {
		// NewReno re-entry guard (RFC 6582): dup ACKs arriving during
		// recovery belong to the same loss window — the partial-ACK
		// path already retransmits the holes; halving cwnd again would
		// collapse it once per hole.
		return
	}
	c.stack.FastRetransmits++
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
	c.resend(&t.q[t.head])
	c.armRTO()
}

// processData handles payload: in-order delivery plus bounded reassembly.
func (c *Conn) processData(seq uint32, payload []byte, buf *mem.Mbuf) {
	if c.state != StateEstablished && c.state != StateFinWait1 && c.state != StateFinWait2 {
		return
	}
	end := seq + uint32(len(payload))
	if seqLE(end, c.rcvNxt) {
		// Entirely old: re-ACK.
		c.scheduleAck()
		return
	}
	if seqLT(seq, c.rcvNxt) {
		// Partial overlap: trim the old prefix.
		drop := seqDiff(c.rcvNxt, seq)
		payload = payload[drop:]
		seq = c.rcvNxt
	}
	wnd := uint32(c.rcvWndAvail())
	if !seqInWindow(seq, c.rcvNxt, wnd+1) {
		// Beyond our window: drop, re-ACK (window probe handling).
		c.scheduleAck()
		return
	}
	if avail := seqDiff(c.rcvNxt+wnd, seq+uint32(len(payload))); avail < 0 {
		payload = payload[:len(payload)+int(avail)]
	}
	if len(payload) == 0 {
		c.scheduleAck()
		return
	}
	if seq == c.rcvNxt {
		c.deliver(payload, buf)
		c.drainReasm()
		c.scheduleDataAck()
	} else {
		c.stack.OutOfOrderSegs++
		c.insertReasm(seq, payload, buf)
		// RFC 5681: an out-of-order segment generates an immediate
		// duplicate ACK so the sender's fast retransmit can count it —
		// it must not be coalesced with other ACKs at Flush.
		c.sendAckNow()
	}
}

// sendAckNow emits a pure ACK immediately (duplicate ACKs for loss
// recovery must not be batched).
func (c *Conn) sendAckNow() {
	c.cancelDelAck()
	c.flags &^= needAck
	hdr := &c.stack.hdr
	*hdr = c.makeHeader(c.sndNxt, wire.TCPAck)
	c.stack.emit(c, hdr, nil)
}

// deliver hands in-order bytes to the application (zero-copy) and
// advances rcvNxt; the window shrinks until RecvDone.
func (c *Conn) deliver(payload []byte, buf *mem.Mbuf) {
	c.rcvNxt += uint32(len(payload))
	c.unconsumed += int32(len(payload))
	c.stack.cfg.Events.Recv(c, buf, payload)
}

// insertReasm stores an out-of-order segment (bounded queue, sorted).
func (c *Conn) insertReasm(seq uint32, payload []byte, buf *mem.Mbuf) {
	const maxReasm = 64
	f := c.borrow()
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
func (c *Conn) drainReasm() {
	if c.fl == nil || c.fl.reasm == nil {
		return
	}
	q := c.fl.reasm
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
		c.deliver(data, rs.buf)
		if rs.buf != nil {
			rs.buf.Unref() // deliver took its own semantics; see Recv contract
		}
	}
	// Fully drained: drop the queue. Reordering is the exception on
	// this fabric, so holding a burst's worth of rxSeg capacity on every
	// connection that ever saw one would bleed the bytes/conn budget.
	c.fl.reasm = nil
}

// processFin handles a peer FIN at sequence finSeq.
func (c *Conn) processFin(finSeq uint32) {
	if seqGT(finSeq, c.rcvNxt) {
		// FIN beyond in-order point (data missing): ignore; peer will
		// retransmit.
		return
	}
	if c.has(finRcvd) {
		c.scheduleAck()
		return
	}
	c.flags |= finRcvd
	c.rcvNxt = finSeq + 1
	c.scheduleAck()
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
		c.stack.cfg.Events.RemoteClosed(c)
	case StateFinWait1:
		c.state = StateClosing
	case StateFinWait2:
		c.enterTimeWait()
	}
}

// maybeFinish advances closing states once our FIN is acked.
func (c *Conn) maybeFinish(ack uint32) {
	finAcked := c.has(finQueued) && c.retransLen() == 0 && ack == c.sndNxt
	switch c.state {
	case StateFinWait1:
		if finAcked {
			if c.has(finRcvd) {
				c.enterTimeWait()
			} else {
				c.state = StateFinWait2
			}
		}
	case StateClosing:
		if finAcked {
			c.enterTimeWait()
		}
	case StateLastAck:
		if finAcked {
			c.destroy(ReasonClosed)
		}
	}
}

func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.cancelRTO()
	w := c.stack.cfg.Wheel
	c.borrow().timer = w.AddArg(c.stack.cfg.Now()+int64(c.stack.cfg.TimeWait), connTimeWait, c)
}

// onTimeWait ends the 2MSL quiet period.
func (c *Conn) onTimeWait() {
	c.fl.timer = nil
	c.destroy(ReasonClosed)
}

// Sendv transmits a scatter-gather array. It accepts and immediately
// segments as many bytes as the usable window allows, returning that
// count (possibly zero): the IX sendv contract, which leaves send
// buffering policy to the application. The payload slices must remain
// immutable until acknowledged (the zero-copy contract of §4.5). backs,
// when not nil, names the pooled memory each slice lies in (nil for
// memory that is not pooled): a segment cut from one backed slice
// leaves in frames that carry it by reference.
//
//ix:hotpath
func (c *Conn) Sendv(bufs [][]byte, backs []fabric.Backing) int {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return 0
	}
	budget := c.usableWindow()
	if budget <= 0 {
		return 0
	}
	total := 0
	mss := wire.MSS
	// Assemble MSS-sized segments from the scatter-gather array in the
	// stack's reusable scratch; sendData moves the fragment references
	// into the tracked segment, so the scratch recycles per segment.
	seg := c.stack.sg[:0]
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
		c.sendData(seg, segLen, back)
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
	c.stack.sg = seg[:0]
	return total
}

// Unreleased returns the payload bytes the retransmission queue still
// references: the sent events' released counts add up to this before
// every byte accepted so far has been released.
func (c *Conn) Unreleased() int {
	t := c.fl
	if t == nil {
		return 0
	}
	n := 0
	for _, ts := range t.q[t.head:] {
		n += ts.length
	}
	return n
}

// Send is a convenience wrapper over Sendv for a single buffer.
func (c *Conn) Send(b []byte) int { return c.Sendv([][]byte{b}, nil) }

// sendData emits one data segment and tracks it for retransmission.
// payload is caller scratch: the fragment references are captured into
// the tracked segment, which owns them until the cumulative ACK passes.
// back is the pooled memory a single-fragment payload lies in, or nil.
//
//ix:hotpath
func (c *Conn) sendData(payload [][]byte, length int, back fabric.Backing) {
	seq := c.sndNxt
	c.sndNxt += uint32(length)
	ts := txSeg{seq: seq, length: length, back: back}
	ts.setPayload(payload)
	t := c.borrow()
	t.q = append(t.q, ts)
	if !t.rttPending {
		t.rttPending = true
		t.rttSeq = c.sndNxt
		t.rttStart = c.stack.cfg.Now()
	}
	hdr := &c.stack.hdr
	*hdr = c.makeHeader(seq, wire.TCPAck|wire.TCPPsh)
	c.flags &^= needAck // piggybacked
	c.cancelDelAck()
	c.stack.emitData(c, hdr, payload, back)
	c.armRTO()
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
	c.sendFIN()
}

// Abort closes with RST (used by the benchmarks to avoid exhausting
// ephemeral ports, as in §5.3) and destroys the connection immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	hdr := c.makeHeader(c.sndNxt, wire.TCPRst|wire.TCPAck)
	c.stack.emit(c, &hdr, nil)
	c.destroy(ReasonClosed)
}

func (c *Conn) sendFIN() {
	c.flags |= finQueued
	seq := c.sndNxt
	c.sndNxt++
	f := c.borrow()
	f.q = append(f.q, txSeg{seq: seq, fin: true})
	hdr := c.makeHeader(seq, wire.TCPFin|wire.TCPAck)
	c.flags &^= needAck
	c.cancelDelAck()
	c.stack.emit(c, &hdr, nil)
	c.armRTO()
}

// RecvDone returns n received bytes to the stack, reopening the receive
// window (the recv_done batched system call: "advances the receive window
// and frees memory buffers"). A window-update ACK is scheduled only when
// the window had shrunk enough for the peer to have throttled (growth of
// at least one MSS from below a quarter of the full window), avoiding a
// gratuitous pure ACK per application read.
func (c *Conn) RecvDone(n int) {
	prev := c.rcvWndAvail()
	c.unconsumed -= int32(n)
	if c.unconsumed < 0 {
		c.unconsumed = 0
	}
	now := c.rcvWndAvail()
	if prev < c.stack.cfg.RcvWnd/4 && now-prev >= wire.MSS {
		c.scheduleAck()
	}
}

// makeHeader builds a header for the current state.
func (c *Conn) makeHeader(seq uint32, flags uint8) wire.TCPHeader {
	wnd := c.rcvWndAvail() >> wndShift
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

// sendFlags emits a control segment (SYN, SYN|ACK) with options, through
// the stack's header scratch (emissions never nest, and a burst of
// admitted SYNs reuses the one header across its coalesced SYN-ACKs).
func (c *Conn) sendFlags(flags uint8, seq, ack uint32, withOpts bool) {
	wnd := c.rcvWndAvail()
	hdr := &c.stack.hdr
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
	c.stack.emit(c, hdr, nil)
	// SYN and SYN|ACK retransmission is driven by connection state in
	// onRTO rather than the retransmission queue.
}

// scheduleSynAck marks an admitted embryonic connection as owing its
// SYN-ACK at the next Flush, on the same pending list pure ACKs use.
func (c *Conn) scheduleSynAck() {
	c.flags |= synAckOwed
	c.queueAck()
}

// queueAck puts the connection on the stack's pending list for Flush,
// once.
func (c *Conn) queueAck() {
	if !c.has(inAckLst) {
		c.flags |= inAckLst
		c.stack.needsAck = append(c.stack.needsAck, c)
	}
}

// scheduleAck marks the connection as owing a pure ACK at the next Flush
// (immediately — used for handshakes, duplicates, out-of-order data and
// probes).
func (c *Conn) scheduleAck() {
	c.cancelDelAck()
	c.flags |= needAck
	c.queueAck()
}

// scheduleDataAck acknowledges in-order data: immediately when delayed
// ACKs are off or every second segment, otherwise after the delack
// timeout — unless a data segment piggybacks it first.
func (c *Conn) scheduleDataAck() {
	da := c.stack.cfg.DelAck
	if da <= 0 {
		c.scheduleAck()
		return
	}
	if c.has(daSeg) {
		c.scheduleAck()
		return
	}
	c.flags |= daSeg
	if f := c.borrow(); f.daTimer == nil {
		f.daTimer = c.stack.cfg.Wheel.AddArg(c.stack.cfg.Now()+int64(da), connDelAck, c)
	}
}

// onDelAck fires the delayed-acknowledgment timeout. The ACK it owes
// leaves at the next Flush, which settles the flight afterwards.
func (c *Conn) onDelAck() {
	c.fl.daTimer = nil
	if c.state != StateClosed {
		c.scheduleAck()
	}
}

func (c *Conn) cancelDelAck() {
	c.flags &^= daSeg
	if f := c.fl; f != nil && f.daTimer != nil {
		c.stack.cfg.Wheel.Cancel(f.daTimer)
		f.daTimer = nil
	}
}

// Flush emits pending pure ACKs — and the SYN-ACKs of the batch's
// admitted SYNs — at the end of each input batch, so acknowledgment
// pacing follows application progress (§3) and handshake replies leave
// as one coalesced group.
func (s *Stack) Flush() {
	for _, c := range s.needsAck {
		c.flags &^= inAckLst
		if c.has(synAckOwed) {
			c.flags &^= synAckOwed
			if c.state == StateSynRcvd {
				c.sendFlags(wire.TCPSyn|wire.TCPAck, c.sndUna, c.rcvNxt, true)
			}
			continue
		}
		if c.has(needAck) && c.state != StateClosed {
			c.flags &^= needAck | daSeg
			hdr := &s.hdr
			*hdr = c.makeHeader(c.sndNxt, wire.TCPAck)
			s.emit(c, hdr, nil)
			c.settle()
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
// memory its single-fragment payload lies in; nil when the payload lies
// in memory that is not pooled, in several fragments, or there is none.
// A frame that carries the payload by reference pins it
// (fabric.Frame.Carry).
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
	s.cfg.Output(&Conn{stack: s, key: key, state: StateClosed}, &hdr, nil)
}

// Migrate moves connection c from its current stack to dst (same host,
// different elastic thread), carrying its flight and re-homing the
// timers in it. It is
// the mechanism behind control-plane flow re-balancing when elastic
// threads are added or removed (§4.4: "when a core is revoked ... the
// corresponding network flows must be assigned to another elastic
// thread"). The caller is responsible for quiescence (no in-flight
// processing of this flow), which the run-to-completion model provides
// between cycles.
func (s *Stack) Migrate(c *Conn, dst *Stack) {
	if c.stack != s || dst == s {
		return
	}
	// Re-home pending timers, preserving their original deadlines (timer
	// continuity): a retransmission, TIME_WAIT or delayed-ACK deadline
	// set before the migration fires at the same virtual time on the
	// destination wheel. Fired/cancelled timers are dropped. The flight
	// itself moves with the connection and is returned to dst's pool. A
	// queued handshake deadline leaves this stack's synQ and is re-armed
	// below as an ordinary timer on dst's wheel.
	synDeadline := int64(-1)
	if c.has(synTimed) {
		for _, e := range s.synQ[s.synHead:] {
			if e.c == c {
				synDeadline = e.deadline
				break
			}
		}
		c.cancelSynRTO()
	}
	if f := c.fl; f != nil {
		for _, t := range []**timerwheel.Timer{&f.timer, &f.daTimer} {
			if *t != nil && !s.cfg.Wheel.Transfer(*t, dst.cfg.Wheel) {
				*t = nil
			}
		}
	}
	if c.has(inAckLst) {
		// Drop from our pending-ACK list; re-add on destination.
		for i, pc := range s.needsAck {
			if pc == c {
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
	c.stack = dst
	dst.conns.put(c)
	if synDeadline >= 0 {
		c.borrow().timer = dst.cfg.Wheel.AddArg(synDeadline, connRTO, c)
	}
	if c.retransLen() > 0 && c.fl.timer == nil && c.state != StateTimeWait {
		// Unacked data without a live timer (should not happen, but a
		// lost RTO would hang the flow forever): re-arm defensively.
		c.armRTO()
	}
	if c.has(needAck) || reownSynAck {
		c.queueAck()
	}
}

// EachConn calls fn for every live connection (any state) in table slot
// order, without allocating: the walk for tallies that do not care about
// order. fn must not open, close or migrate connections.
func (s *Stack) EachConn(fn func(*Conn)) {
	for _, c := range s.conns.slots {
		if c != nil {
			fn(c)
		}
	}
}

// Conns returns the live connections (any state), for control-plane
// rebalancing sweeps. The slice is freshly allocated and sorted by flow
// key: migration walks it, and its order reaches handle numbering and
// event order, so it is defined by the keys alone, not by table layout.
func (s *Stack) Conns() []*Conn {
	out := make([]*Conn, 0, s.conns.n)
	s.EachConn(func(c *Conn) { out = append(out, c) })
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		if a.SrcIP != b.SrcIP {
			return a.SrcIP < b.SrcIP
		}
		if a.DstIP != b.DstIP {
			return a.DstIP < b.DstIP
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		return a.DstPort < b.DstPort
	})
	return out
}

// armRTO (re)arms the retransmission timer. A pending timer is moved in
// place (timerwheel.Wheel.Reset), which fires exactly where cancelling
// it and adding a new one would.
func (c *Conn) armRTO() {
	w := c.stack.cfg.Wheel
	deadline := c.stack.cfg.Now() + int64(c.rto)
	f := c.borrow()
	if f.timer != nil && w.Reset(f.timer, deadline) {
		return
	}
	f.timer = w.AddArg(deadline, connRTO, c)
}

// cancelRTO cancels the timer slot: the RTO, or in TIME_WAIT (reached
// only from destroy) the 2MSL timer — or, for an embryonic connection,
// its queued handshake deadline.
func (c *Conn) cancelRTO() {
	if c.has(synTimed) {
		c.cancelSynRTO()
		return
	}
	if f := c.fl; f != nil && f.timer != nil {
		c.stack.cfg.Wheel.Cancel(f.timer)
		f.timer = nil
	}
}

// onRTO fires the retransmission timeout. The timer is re-armed (the
// connection borrows a flight for it, if it had none: a first handshake
// timeout comes from synQ), or the connection dies.
func (c *Conn) onRTO() {
	if c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	c.rexmitCount++
	if int(c.rexmitCount) > c.stack.cfg.MaxRexmits {
		c.destroy(ReasonTimeout)
		return
	}
	c.stack.Retransmits++
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
		c.sendFlags(wire.TCPSyn, c.sndUna, 0, true)
	case StateSynRcvd:
		c.sendFlags(wire.TCPSyn|wire.TCPAck, c.sndUna, c.rcvNxt, true)
	default:
		// resend drops the pending RTT sample (Karn); with nothing
		// tracked there is none.
		if c.retransLen() > 0 {
			f := c.fl
			f.inRecovery = true
			f.recoverSeq = c.sndNxt
			c.resend(&f.q[f.head])
		}
	}
	c.armRTO()
}

// synEntry is one queued handshake deadline (Stack.synQ) and the place
// in the wheel's firing order a timer of its own would have taken.
type synEntry struct {
	c        *Conn
	deadline int64
	place    uint32
}

// armSynRTO arms an embryonic connection's first retransmission timeout
// — its RTO is still initialRTO — by queueing it on synQ with the place
// a timer of its own would take in the wheel. Beyond the queue's
// amortized backing it neither allocates nor borrows a flight, and only
// the first arming of an empty queue touches the wheel. A wheel so far
// behind the clock that the deadline would not land in its lowest level
// keeps no place; the connection then arms an ordinary timer.
//
//ix:hotpath
func (c *Conn) armSynRTO() {
	s := c.stack
	w := s.cfg.Wheel
	deadline := s.cfg.Now() + int64(initialRTO)
	place, ok := w.Reserve(deadline)
	if !ok {
		c.armRTO()
		return
	}
	c.flags |= synTimed
	s.synQ = append(s.synQ, synEntry{c: c, deadline: deadline, place: place})
	if s.synTimer == nil {
		s.synTimer = w.AddArgAt(deadline, place, stackSynRTO, s)
	}
}

// cancelSynRTO disarms a queued handshake deadline. The entry stays
// behind, dead, unless it is the head: then the dead prefix goes and
// the timer moves to the next live deadline, at the place that
// connection's own timer would have held.
//
//ix:hotpath
func (c *Conn) cancelSynRTO() {
	c.flags &^= synTimed
	if s := c.stack; s.synQ[s.synHead].c == c {
		s.retimeSynQ()
	}
}

// retimeSynQ drops the dead entries at synQ's head and puts synTimer on
// the first live deadline and its place, or cancels it when none is
// left. A dead
// prefix of at least half the queue is compacted away, so the backing
// stays bounded by the handshakes armed within one initialRTO however
// long the queue never drains.
//
//ix:hotpath
func (s *Stack) retimeSynQ() {
	q, h := s.synQ, s.synHead
	for h < len(q) && !q[h].c.has(synTimed) {
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

// onSynRTO fires the head entry's timeout — the timer is kept on a live
// head — and re-times the queue. The fired connection leaves the queue:
// its retransmissions use ordinary timers. An entry due in the same tick
// gets the timer back at its own place in the slot being fired, so the
// wheel fires it in this Advance, behind the timers that arrived before
// it.
func (s *Stack) onSynRTO() {
	s.synTimer = nil
	c := s.synQ[s.synHead].c
	s.synQ[s.synHead] = synEntry{}
	s.synHead++
	c.flags &^= synTimed
	c.onRTO()
	s.retimeSynQ()
}

// resend retransmits one tracked segment, assembling its fragment
// references in the stack scratch (the bytes themselves are still the
// original, immutable sender bytes — retransmission is zero-copy too).
func (c *Conn) resend(ts *txSeg) {
	c.fl.rttPending = false // Karn's rule: no sample from retransmitted data
	var flags uint8 = wire.TCPAck
	if ts.fin {
		flags |= wire.TCPFin
	} else if ts.length > 0 {
		flags |= wire.TCPPsh
	}
	hdr := &c.stack.hdr
	*hdr = c.makeHeader(ts.seq, flags)
	sg := ts.appendPayload(c.stack.sg[:0])
	c.stack.emitData(c, hdr, sg, ts.back)
	c.stack.sg = sg[:0]
}

// destroy tears the connection down and reports the terminal event:
// Connected(false) for failed active opens, Dead otherwise (exactly once).
func (c *Conn) destroy(reason Reason) {
	if c.state == StateClosed {
		return
	}
	prev := c.state
	c.state = StateClosed
	c.cancelRTO() // the 2MSL timer too: it shares the slot
	c.cancelDelAck()
	if prev == StateSynRcvd {
		c.stack.embryonicDone(c.key.SrcPort)
	}
	if f := c.fl; f != nil {
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
		c.fl = nil
		c.stack.putFlight(f)
	}
	c.stack.conns.del(c.key)
	if prev == StateSynSent {
		c.stack.cfg.Events.Connected(c, false)
		return
	}
	c.stack.cfg.Events.Dead(c, reason)
}
