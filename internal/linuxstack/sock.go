package linuxstack

import (
	"time"

	"ix/internal/app"
	"ix/internal/mem"
	"ix/internal/tcp"
	"ix/internal/wire"
)

// sndbufMax models SO_SNDBUF: bytes the kernel will buffer beyond what
// the TCP window has accepted (Linux buffers send data past raw TCP
// constraints and applies flow control inside the kernel, §4.3).
const sndbufMax = 4 << 20

// rcvKeep bounds the receive backing a drained sockBuf keeps for its
// next borrower: request-response messages fit and recycle
// allocation-free, while a bulk transfer's grown buffer is released —
// retaining those measurably raises the live heap of a streaming host.
const rcvKeep = 2 << 10

// sock is a kernel socket plus its epoll registration: the Linux analogue
// of an IX flow handle + libix conn. It holds only what an idle
// established socket needs; the staging buffers exist only while bytes
// are queued and live in a sockBuf borrowed from the host's pool
// (DESIGN.md, "Per-connection memory budget").
type sock struct {
	k      *kcore
	conn   *tcp.Conn
	cookie any

	// buf is non-nil from the first queued byte in either direction
	// until both staging buffers are empty again.
	buf *sockBuf

	// sentPending is int32 (bounded by sndbufMax).
	sentPending int32

	inReady          bool
	acceptPending    bool
	connectedPending bool
	connectedOK      bool
	eofPending       bool
	deadPending      bool
	dead             bool

	// closing: close(2) was called; the FIN is owed but deferred until
	// the kernel sndbuf drains (finSent marks it issued). Linux never
	// drops buffered bytes on close — the kernel keeps flushing and
	// sequences the FIN after the data.
	closing bool
	finSent bool
	// wantReady arms the writable-again edge for a handler that
	// implements app.SendReadyHandler after a short write; readyPending
	// carries the armed edge to the app thread's dispatch.
	wantReady    bool
	readyPending bool
}

var _ app.Conn = (*sock)(nil)

// sockBuf is the kernel-side staging of one socket with bytes queued.
type sockBuf struct {
	// rcvbuf holds bytes copied out of skbs, awaiting read(); rcvOff is
	// the read cursor. A drained backing of at most rcvKeep stays with
	// the object for its next borrower.
	rcvbuf []byte
	// sndbuf holds bytes written by the app beyond the TCP window. Its
	// backing is never recycled: retransmission segments reference the
	// transmitted prefix in place until acknowledged, so a drained
	// sndbuf is dropped and the next write allocates afresh.
	sndbuf []byte
	rcvOff int32
}

// getBuf returns the socket's staging buffers, borrowing a sockBuf from
// the host's pool (a plain LIFO free list: the simulation is
// single-goroutine, so it needs no locking) when none is attached.
//
//ix:hotpath
func (s *sock) getBuf() *sockBuf {
	if s.buf != nil {
		return s.buf
	}
	h := s.k.h
	if n := len(h.bufFree); n > 0 {
		s.buf = h.bufFree[n-1]
		h.bufFree[n-1] = nil
		h.bufFree = h.bufFree[:n-1]
	} else {
		//ixvet:ignore(hotpath) pool miss: once per unit of peak concurrency, steady state hits the free list
		s.buf = &sockBuf{}
	}
	return s.buf
}

// putBuf returns the staging buffers to the host's pool once both are
// empty. A receive buffer counts as empty only after rcvDrained reset
// it — never while the reader still holds the last chunk.
//
//ix:hotpath
func (s *sock) putBuf() {
	b := s.buf
	if b == nil || len(b.rcvbuf) > 0 || len(b.sndbuf) > 0 {
		return
	}
	s.buf = nil
	s.k.h.bufFree = append(s.k.h.bufFree, b)
}

// rcvDrained resets a fully read receive buffer, after the OnRecv that
// was handed its last chunk has returned.
//
//ix:hotpath
func (s *sock) rcvDrained() {
	b := s.buf
	if cap(b.rcvbuf) > rcvKeep {
		b.rcvbuf = nil
	} else {
		b.rcvbuf = b.rcvbuf[:0]
	}
	b.rcvOff = 0
	s.putBuf()
}

// Send is write(2): syscall entry, kernel copy, inline TCP transmit of
// whatever the window takes, kernel sndbuf for the rest.
func (s *sock) Send(b []byte) int {
	if s.dead || s.conn == nil || s.closing {
		return 0
	}
	k := s.k
	c := &k.h.cfg.Cost
	k.chargeK(c.SyscallEntry + c.SockWrite + c.CopyPerByte.Cost(len(b)))
	room := sndbufMax - s.Unsent()
	if room <= 0 {
		s.armSendReady()
		return 0
	}
	if len(b) > room {
		b = b[:room]
		s.armSendReady()
	}
	// The kernel owns a copy of the data from here on.
	sb := s.getBuf()
	sb.sndbuf = append(sb.sndbuf, b...)
	s.flushSnd()
	return len(b)
}

// flushSnd pushes sndbuf into the TCP engine as the window allows;
// runs inline on write() and from softirq on ACKs.
func (s *sock) flushSnd() {
	b := s.buf
	if b == nil || len(b.sndbuf) == 0 || s.conn == nil {
		return
	}
	k := s.k
	k.sg[0] = b.sndbuf
	n := s.conn.Sendv(k.sg[:])
	k.sg[0] = nil
	if n > 0 {
		segs := (n + wire.MSS - 1) / wire.MSS
		k.chargeK(time.Duration(segs) * k.h.cfg.Cost.TxPerPkt)
		// Note: the transmitted prefix must stay immutable until acked
		// (zero-copy contract of the engine); the kernel model honors
		// that by never mutating consumed prefixes.
		b.sndbuf = b.sndbuf[n:]
		if len(b.sndbuf) == 0 {
			b.sndbuf = nil
			s.putBuf()
		}
	}
}

// armSendReady arms the writable-again edge after a short write; a
// no-op unless the core's handler implements app.SendReadyHandler.
func (s *sock) armSendReady() {
	if s.k.sendReady == nil || s.dead || s.closing {
		return
	}
	s.wantReady = true
}

// Unsent reports kernel-buffered bytes not yet accepted by TCP.
func (s *sock) Unsent() int {
	if s.buf == nil {
		return 0
	}
	return len(s.buf.sndbuf)
}

// Close is close(2) → FIN. Bytes still in the kernel sndbuf are not
// dropped: the ACK-driven flush keeps running and the FIN is issued
// only once the buffer drains, so queued data reaches the wire first.
// Further writes are rejected (the fd is gone).
func (s *sock) Close() {
	if s.dead || s.conn == nil || s.closing {
		return
	}
	s.k.chargeK(s.k.h.cfg.Cost.SyscallEntry)
	s.closing = true
	s.wantReady = false
	if s.Unsent() == 0 {
		s.finSent = true
		s.conn.Close()
	}
	// Otherwise the FIN is owed to kernelEvents.Sent.
}

// Abort is close(2) with SO_LINGER 0 → RST.
func (s *sock) Abort() {
	if s.dead || s.conn == nil {
		return
	}
	s.k.chargeK(s.k.h.cfg.Cost.SyscallEntry)
	s.conn.Abort()
}

// Cookie returns the app tag.
func (s *sock) Cookie() any { return s.cookie }

// SetCookie tags the socket.
func (s *sock) SetCookie(v any) { s.cookie = v }

// kernelEvents adapts TCP engine callbacks to socket state; methods run
// in softirq (or inline write()) context on whichever core is current.
type kernelEvents Host

// k returns the core whose context is executing (for cost attribution
// and new-socket affinity — the affinity-accept behaviour of §2.3).
func (ke *kernelEvents) k() *kcore {
	h := (*Host)(ke)
	if h.cur != nil {
		return h.cur
	}
	return h.cores[0]
}

func (ke *kernelEvents) Knock(l *tcp.Listener, key wire.FlowKey) bool { return true }

func (ke *kernelEvents) Accepted(c *tcp.Conn) {
	// Affinity-accept: the new socket is owned by the core whose queue
	// received the handshake (§2.3); its events wake that core's thread.
	k := ke.k()
	s := &sock{k: k, conn: c, acceptPending: true}
	c.Cookie = (*Host)(ke).grantSock(s)
	k.enqueueReady(s)
}

// Established sockets wake the epoll of their *owning* core — the
// thread that issued the connect (or accepted the socket) — regardless
// of which core's softirq context processed the packet: a locally
// initiated socket's return traffic carries no affinity to the issuing
// core (the shared kernel stack has no RSS-aligned port probing), so
// routing its readiness to the RSS core would hand the socket to a
// different application thread than the one that owns the fd.

func (ke *kernelEvents) Connected(c *tcp.Conn, ok bool) {
	h := (*Host)(ke)
	s := h.sockOf(c)
	if s == nil {
		return
	}
	s.connectedPending = true
	s.connectedOK = ok
	if !ok {
		// Terminal: a failed active open never reaches Dead (the engine
		// reports SynSent teardown as Connected(false) only), so the
		// cookie slot is released here.
		s.dead = true
		h.revokeSock(c.Cookie)
	}
	s.k.enqueueReady(s)
}

func (ke *kernelEvents) Recv(c *tcp.Conn, buf *mem.Mbuf, data []byte) {
	s := (*Host)(ke).sockOf(c)
	if s == nil {
		return
	}
	// skb → socket buffer. The byte copy cost is charged at read()
	// time (CopyPerByte covers the single kernel→user copy; queueing
	// here models skb retention without holding the mbuf).
	b := s.getBuf()
	b.rcvbuf = append(b.rcvbuf, data...)
	s.k.enqueueReady(s)
}

// Sent ignores released: the kernel sndbuf slides by accepted bytes,
// not by segment reclamation.
func (ke *kernelEvents) Sent(c *tcp.Conn, acked, released int) {
	s := (*Host)(ke).sockOf(c)
	if s == nil {
		return
	}
	// ACK-clocked transmit from softirq context.
	s.flushSnd()
	// A deferred close(2) issues its FIN the moment the buffer drains.
	if s.closing && !s.finSent && s.Unsent() == 0 {
		s.finSent = true
		s.conn.Close()
		return
	}
	// Only wake the app for write-readiness when it still has buffered
	// data (libevent-style write events are enabled on demand).
	if acked > 0 && s.Unsent() > 0 && !s.closing {
		s.sentPending += int32(acked)
		s.k.enqueueReady(s)
	}
	// Writable-again edge: a writer that saw a short write wakes once —
	// and only once the buffer has actually reopened, so a fully drained
	// sndbuf (which the wake above never covers) still signals.
	if s.wantReady && s.Unsent() < sndbufMax {
		s.wantReady = false
		s.readyPending = true
		s.k.enqueueReady(s)
	}
}

func (ke *kernelEvents) RemoteClosed(c *tcp.Conn) {
	s := (*Host)(ke).sockOf(c)
	if s == nil {
		return
	}
	s.eofPending = true
	s.k.enqueueReady(s)
}

func (ke *kernelEvents) Dead(c *tcp.Conn, reason tcp.Reason) {
	h := (*Host)(ke)
	s := h.sockOf(c)
	if s == nil {
		return
	}
	h.revokeSock(c.Cookie)
	s.deadPending = true
	s.k.enqueueReady(s)
}
