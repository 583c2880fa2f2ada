// Package sockcore is the buffered socket the Linux and mTCP models share
// (§5.1): an app.Conn over the TCP engine with send and receive staging,
// a close that drains before its FIN, the writable-again edge, and event
// dispatch to an app.Handler. The two stacks differ only in where and
// when protocol work runs (§2.3, §5.2), so each supplies only that: a
// cost table, three hooks and the size of one read (Owner).
package sockcore

import (
	"math"
	"time"

	"ix/internal/app"
	"ix/internal/cost"
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/netstack"
	"ix/internal/tcp"
	"ix/internal/wire"
)

// Config describes a Linux or an mTCP host.
type Config struct {
	IP  wire.IPv4
	MAC wire.MAC
	// Cores is the number of cores. Each has one NIC queue pair and one
	// pinned application thread, beside a softirq context on Linux
	// (interrupts affinitized, §5.1's tuning) or a TCP thread on mTCP.
	Cores int
	// Factory builds the per-thread application.
	Factory app.Factory
	// Seed, RcvWnd, MinRTO, MemPages, NICRing tune the stack.
	Seed     uint64
	RcvWnd   int
	MinRTO   time.Duration
	MemPages int
	NICRing  int
	// ExpectedConns presizes the connection and socket tables for the
	// anticipated host-wide population (0 = grow on demand).
	ExpectedConns int
}

// sndbufMax models SO_SNDBUF: bytes a socket buffers beyond what the TCP
// window has accepted (§4.3).
const sndbufMax = 4 << 20

// SendPool returns the chunk pool a layer's sockets send from, made and
// kept by host h. Its region is unbounded, so sndbufMax is a socket's
// only send limit and the host's MemPages grant stays its mbuf pools'
// alone.
func SendPool(h *netstack.Host, owner int) *mem.TxChunkPool {
	return h.TxPool(mem.NewRegion(math.MaxInt), owner)
}

// Costs is a stack's charge table, in simulated CPU time.
type Costs struct {
	Write     time.Duration // per Send, plus CopyPerByte per byte offered
	TxSeg     time.Duration // per segment a flush hands to TCP
	Close     time.Duration
	Abort     time.Duration
	Event     time.Duration // per socket taken off the ready queue
	Accept    time.Duration // before OnAccept
	Connected time.Duration // before OnConnected
	Read      time.Duration // per read, plus CopyPerByte per byte read
	Sent      time.Duration // before OnSent
	SendReady time.Duration // before OnSendReady
	// CopyPerByte is the copy between staging and the application.
	CopyPerByte cost.PerByte
}

// Op is a socket operation the application requests and Owner.Run
// places: inline, as a Linux syscall, or on the TCP thread, as an mTCP job.
type Op uint8

const (
	OpFlush Op = iota // push staged bytes into TCP
	OpClose           // issue the owed FIN once nothing is left unsent
	OpAbort           // reset the connection
)

// Owner is one application thread's side of the socket layer. A stack
// embeds one per core and fills in the exported fields, which are what it
// models; the hooks are bound once, at setup. The rest is the handler its
// sockets deliver to and the queue of sockets with events pending.
type Owner struct {
	Layer *Layer // of the engine the sockets run over
	Costs
	// ReadMax caps the bytes one read takes. A read takes whole slabs, so
	// SlabSize is the smallest meaningful cap.
	ReadMax int
	// Charge bills simulated CPU time to whatever task is running.
	Charge func(time.Duration)
	// Run performs op on a socket, now or later (Sock.Do runs it).
	Run func(*Sock, Op)
	// Ready runs after a socket joins the ready queue: wake the app thread.
	Ready func()

	handler   app.Handler
	sendReady app.SendReadyHandler

	ready []*Sock
	head  int

	// sg is the scatter-gather a flush hands the engine, and backs the
	// arena chunk each entry lies in; the engine consumes both before
	// Sendv returns.
	sg    [][]byte
	backs []fabric.Backing
	// gather is the scratch a read of several slabs is copied into.
	gather []byte
}

// SetHandler installs the application handler, and its writable-again
// extension when it has one.
func (o *Owner) SetHandler(h app.Handler) {
	o.handler = h
	o.sendReady, _ = h.(app.SendReadyHandler)
}

// Pending reports whether a socket waits on the ready queue.
func (o *Owner) Pending() bool { return o.head < len(o.ready) }

// NewSock returns the socket an active open will bind (Sock.Open).
func (o *Owner) NewSock(cookie any) *Sock { return &Sock{o: o, cookie: cookie} }

// Dispatch drains the ready queue in order (sockets queued meanwhile
// included), delivering each socket's pending events to the handler.
func (o *Owner) Dispatch() {
	for o.head < len(o.ready) {
		s := o.ready[o.head]
		o.ready[o.head] = nil
		o.head++
		if o.head == len(o.ready) {
			o.ready = o.ready[:0]
			o.head = 0
		}
		s.flags &^= inReady
		o.Charge(o.Event)
		o.dispatch(s)
	}
}

// dispatch delivers one socket's events, in the fixed order accept,
// connect, reads, sent, writable-again, EOF, close.
func (o *Owner) dispatch(s *Sock) {
	h := o.handler
	if s.take(acceptPending) {
		o.Charge(o.Accept)
		h.OnAccept(s)
	}
	if s.take(connectedPending) {
		o.Charge(o.Connected)
		ok := s.flags&connectedOK != 0
		h.OnConnected(s, ok)
		if !ok {
			return
		}
	}
	// Nothing stages more bytes while the app thread occupies the core,
	// so the chunk is still this socket's when readDone drops it.
	for s.buf != nil {
		chunk, slabs := s.nextRead()
		n := len(chunk)
		if n == 0 {
			break
		}
		o.Charge(o.Read + o.CopyPerByte.Cost(n))
		if c := s.tcp(); c != nil {
			c.RecvDone(n) // the window opens as the app consumes
		}
		h.OnRecv(s, chunk)
		s.readDone(slabs)
		if s.flags&dead != 0 {
			return
		}
	}
	if s.sentPending > 0 {
		n := int(s.sentPending)
		s.sentPending = 0
		o.Charge(o.Sent)
		h.OnSent(s, n)
	}
	if s.take(readyPending) && o.sendReady != nil && s.flags&(dead|closing) == 0 {
		o.Charge(o.SendReady)
		o.sendReady.OnSendReady(s)
	}
	if s.take(eofPending) {
		h.OnEOF(s)
	}
	if s.take(deadPending) {
		s.flags |= dead
		s.dropStaging() // unsent bytes die with the socket
		h.OnClosed(s)
	}
}

// flag is one bit of a socket's state.
type flag uint16

const (
	inReady flag = 1 << iota // on the owner's ready queue

	// Events the next dispatch delivers.
	acceptPending
	connectedPending
	connectedOK
	eofPending
	deadPending
	readyPending

	dead      // the flow is gone: calls are no-ops
	closing   // Close was called: writes are refused, the FIN is owed
	finSent   // the owed FIN is issued
	wantReady // a short Send armed the writable-again edge
)

// Sock is a connection as the application sees it. It holds only what an
// idle established connection needs; staging is borrowed from the layer's
// pools while bytes are queued (DESIGN.md, "Per-connection memory
// budget"), and its slab half hangs off the borrowed buffers, so an idle
// socket is 48 bytes.
type Sock struct {
	o      *Owner
	cookie any
	buf    *buf // attached from the first queued byte until both directions drain
	// conn names the engine connection, 0 before Open and after Dead.
	conn tcp.ConnID

	sentPending int32 // bounded by sndbufMax
	flags       flag
}

var _ app.Conn = (*Sock)(nil)

// take clears f and reports whether it was set.
func (s *Sock) take(f flag) bool {
	set := s.flags&f != 0
	s.flags &^= f
	return set
}

// ready queues s for its owner's dispatch, once, and wakes the app thread.
func (s *Sock) ready() {
	o := s.o
	if s.flags&inReady == 0 {
		s.flags |= inReady
		o.ready = append(o.ready, s)
	}
	o.Ready()
}

// Open finishes an active open: s takes the engine connection, or queues
// OnConnected(false) if the open failed before reaching the engine.
func (s *Sock) Open(c *tcp.Conn, err error) {
	if err != nil {
		s.flags |= connectedPending | dead
		s.ready()
		return
	}
	s.o.Layer.bind(c, s)
}

// tcp resolves the socket's engine connection: nil before Open and after Dead.
func (s *Sock) tcp() *tcp.Conn {
	if s.conn == 0 {
		return nil
	}
	return s.o.Layer.TCP.Conn(s.conn)
}

// Do performs op on s now.
func (s *Sock) Do(op Op) {
	switch op {
	case OpFlush:
		s.flushSnd()
	case OpClose:
		s.finishClose()
	case OpAbort:
		if c := s.tcp(); c != nil {
			c.Abort()
		}
	}
}

// Send is write(2) or mtcp_write: it stages a copy of b and has Owner.Run
// flush it into TCP. Bytes past sndbufMax are refused and arm the
// writable-again edge.
func (s *Sock) Send(b []byte) int {
	if s.flags&(dead|closing) != 0 {
		return 0
	}
	o := s.o
	o.Charge(o.Write + o.CopyPerByte.Cost(len(b)))
	room := sndbufMax - s.Unsent()
	if room <= 0 {
		s.armSendReady()
		return 0
	}
	if len(b) > room {
		b = b[:room]
		s.armSendReady()
	}
	s.getBuf().tx.Write(b)
	o.Run(s, OpFlush)
	return len(b)
}

// flushSnd pushes staged bytes into TCP as the window allows: where
// Owner.Run puts a Send's flush, and on every ACK.
func (s *Sock) flushSnd() {
	b := s.buf
	c := s.tcp()
	if b == nil || b.tx.Untaken() == 0 || c == nil || s.flags&dead != 0 {
		return
	}
	o := s.o
	o.sg, o.backs = b.tx.Pending(o.sg[:0], o.backs[:0])
	n := c.Sendv(o.sg, o.backs)
	clear(o.sg)
	if n > 0 {
		o.Charge(time.Duration((n+wire.MSS-1)/wire.MSS) * o.TxSeg)
		b.tx.Took(n)
	}
}

// armSendReady arms the writable-again edge after a short Send; a no-op
// unless the handler implements app.SendReadyHandler.
func (s *Sock) armSendReady() {
	if s.o.sendReady == nil || s.flags&(dead|closing) != 0 {
		return
	}
	s.flags |= wantReady
}

// Unsent reports staged bytes TCP has not accepted yet.
func (s *Sock) Unsent() int {
	if s.buf == nil {
		return 0
	}
	return s.buf.tx.Untaken()
}

// Close is close(2) → FIN. Staged bytes are not dropped: ACKs keep
// flushing them, and the FIN follows the last of them.
func (s *Sock) Close() {
	if s.flags&(dead|closing) != 0 {
		return
	}
	o := s.o
	o.Charge(o.Close)
	s.flags |= closing
	s.flags &^= wantReady
	o.Run(s, OpClose)
}

// finishClose issues the owed FIN once nothing is left unsent; until then
// it stays owed to the Sent event that drains the staging.
func (s *Sock) finishClose() {
	c := s.tcp()
	if s.flags&(closing|finSent|dead) != closing || c == nil || s.Unsent() > 0 {
		return
	}
	s.flags |= finSent
	c.Close()
}

// Abort is close(2) with SO_LINGER 0 → RST.
func (s *Sock) Abort() {
	if s.flags&dead != 0 {
		return
	}
	o := s.o
	o.Charge(o.Abort)
	o.Run(s, OpAbort)
}

// Cookie returns the application's tag.
func (s *Sock) Cookie() any { return s.cookie }

// SetCookie tags the socket.
func (s *Sock) SetCookie(v any) { s.cookie = v }
