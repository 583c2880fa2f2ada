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

// rcvKeep is the two-size staging rule's threshold. Up to rcvKeep bytes
// queued for read() — and a write of up to rcvKeep — stage in exact-size
// buffers, whose drained backing (at most rcvKeep) stays with the pooled
// sockBuf, so request-response traffic recycles allocation-free and never
// holds a slab. Anything larger stages in readChunk-sized slabs from the
// host's pool (DESIGN.md, "What a byte costs").
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
	// rcvbuf holds bytes copied out of skbs, awaiting read(), while all
	// of them fit rcvKeep; read() takes it whole. A drained backing of at
	// most rcvKeep stays with the object for its next borrower.
	rcvbuf []byte
	// sndbuf holds bytes written by the app beyond the TCP window — a
	// view of slabs.snd for a bulk write into an empty buffer, else an
	// exact-size heap backing. Retransmission segments reference the
	// transmitted prefix in place until acknowledged, so a drained heap
	// backing is dropped (the next write allocates afresh) and a slab is
	// parked until the released count passes its last byte.
	sndbuf []byte
	// slabs stages the bulk traffic; allocated on a socket's first slab
	// and kept by the pooled object, so only the slabs cycle.
	slabs *sockSlabs
}

// sockSlabs is the bulk half of a sockBuf: readChunk-sized slabs drawn
// from the host's pool.
type sockSlabs struct {
	// rcv is the receive chain in stream order, each slab filled up to
	// its len. read() takes the head slab whole, so read boundaries fall
	// every readChunk bytes — exactly where one contiguous buffer read a
	// readChunk at a time put them.
	rcv [][]byte
	// snd backs sndbuf until TCP has taken all of it.
	snd []byte
	// parked holds slabs TCP has taken and may still retransmit from,
	// oldest first.
	parked []parkedSlab
}

// parkedSlab is a send slab awaiting release: left is how many more
// released bytes must be reported before its last byte is released.
type parkedSlab struct {
	b    []byte
	left int
}

// count returns the slabs attached.
func (st *sockSlabs) count() int {
	n := len(st.rcv) + len(st.parked)
	if st.snd != nil {
		n++
	}
	return n
}

// getSlab draws an empty slab from the host's pool.
//
//ix:hotpath
func (h *Host) getSlab() []byte {
	if n := len(h.slabFree); n > 0 {
		b := h.slabFree[n-1]
		h.slabFree[n-1] = nil
		h.slabFree = h.slabFree[:n-1]
		return b
	}
	h.slabsMade++
	//ixvet:ignore(hotpath) pool miss: once per unit of peak bulk concurrency, steady state hits the free list
	return make([]byte, 0, readChunk)
}

// putSlab returns a slab nothing references any more to the pool.
//
//ix:hotpath
func (h *Host) putSlab(b []byte) {
	h.slabFree = append(h.slabFree, b[:0])
}

// Slabs reports the host's staging slabs: attached to sockets (queued
// bytes or awaiting release), and idle on the free list.
func (h *Host) Slabs() (inUse, free int) {
	return h.slabsMade - len(h.slabFree), len(h.slabFree)
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

// putBuf returns the staging buffers to the host's pool once both
// directions are empty and no slab is attached. Received bytes count as
// queued until readDone drops them — never while the reader still holds
// the chunk.
//
//ix:hotpath
func (s *sock) putBuf() {
	b := s.buf
	if b == nil || len(b.rcvbuf) > 0 || len(b.sndbuf) > 0 || (b.slabs != nil && b.slabs.count() > 0) {
		return
	}
	s.buf = nil
	s.k.h.bufFree = append(s.k.h.bufFree, b)
}

// bulk returns the slab half of the socket's staging, allocating it on
// the pooled object's first bulk use.
//
//ix:hotpath
func (b *sockBuf) bulk() *sockSlabs {
	if b.slabs == nil {
		//ixvet:ignore(hotpath) once per pooled sockBuf, which keeps it across borrowers
		b.slabs = &sockSlabs{}
	}
	return b.slabs
}

// stageRcv queues bytes received from the wire for read(): appended to
// the small buffer while everything queued fits rcvKeep, else to the
// slab chain — the small buffer's bytes move into the chain's first slab
// so the stream stays in order, and the chain takes every arrival until
// it is read empty.
//
//ix:hotpath
func (s *sock) stageRcv(data []byte) {
	b := s.getBuf()
	if b.slabs == nil || len(b.slabs.rcv) == 0 {
		if len(b.rcvbuf)+len(data) <= rcvKeep {
			b.rcvbuf = append(b.rcvbuf, data...)
			return
		}
		st := b.bulk()
		st.rcv = append(st.rcv, append(s.k.h.getSlab(), b.rcvbuf...))
		b.rcvbuf = keepSmall(b.rcvbuf)
	}
	st := b.slabs
	for len(data) > 0 {
		last := len(st.rcv) - 1
		if len(st.rcv[last]) == readChunk {
			st.rcv = append(st.rcv, s.k.h.getSlab())
			last++
		}
		n := min(len(data), readChunk-len(st.rcv[last]))
		st.rcv[last] = append(st.rcv[last], data[:n]...)
		data = data[n:]
	}
}

// nextRead returns what one read() takes: the head slab of the chain, or
// else the whole small buffer (empty when nothing is queued).
func (b *sockBuf) nextRead() []byte {
	if st := b.slabs; st != nil && len(st.rcv) > 0 {
		return st.rcv[0]
	}
	return b.rcvbuf
}

// readDone drops the chunk nextRead returned, after the OnRecv it was
// handed to has returned: a slab goes back to the pool, the small buffer
// resets, and a socket with nothing left queued returns its sockBuf.
//
//ix:hotpath
func (s *sock) readDone() {
	b := s.buf
	if st := b.slabs; st != nil && len(st.rcv) > 0 {
		s.k.h.putSlab(st.rcv[0])
		n := copy(st.rcv, st.rcv[1:])
		st.rcv[n] = nil
		st.rcv = st.rcv[:n]
	} else {
		b.rcvbuf = keepSmall(b.rcvbuf)
	}
	s.putBuf()
}

// keepSmall empties a drained small buffer, keeping a backing of at
// most rcvKeep for the next borrower and dropping a larger one.
func keepSmall(b []byte) []byte {
	if cap(b) > rcvKeep {
		return nil
	}
	return b[:0]
}

// parkSnd moves the slab behind sndbuf to the parked list once TCP has
// taken all it will take from it. Every byte TCP took from it is among
// those the engine still references, so the slab is free once the
// released counts add up to that many — at once if there are none.
func (s *sock) parkSnd(st *sockSlabs) {
	slab := st.snd
	st.snd = nil
	if left := s.conn.Unreleased(); left > 0 {
		st.parked = append(st.parked, parkedSlab{b: slab, left: left})
		return
	}
	s.k.h.putSlab(slab)
}

// releaseParked applies a sent event's released count to the parked
// slabs, returning those whose last byte it covered.
func (s *sock) releaseParked(released int) {
	b := s.buf
	if released <= 0 || b == nil || b.slabs == nil || len(b.slabs.parked) == 0 {
		return
	}
	st := b.slabs
	done := 0
	for i := range st.parked {
		p := &st.parked[i]
		if p.left -= released; p.left <= 0 {
			s.k.h.putSlab(p.b)
			done = i + 1
		}
	}
	n := copy(st.parked, st.parked[done:])
	clear(st.parked[n:])
	st.parked = st.parked[:n]
	s.putBuf()
}

// dropStaging tears a dead socket's staging down: the engine dropped its
// references with the flow, so every slab returns to the pool and
// unread or unsent bytes die with the socket.
func (s *sock) dropStaging() {
	b := s.buf
	if b == nil {
		return
	}
	b.rcvbuf = keepSmall(b.rcvbuf)
	b.sndbuf = nil
	if st := b.slabs; st != nil {
		h := s.k.h
		for i, slab := range st.rcv {
			h.putSlab(slab)
			st.rcv[i] = nil
		}
		st.rcv = st.rcv[:0]
		if st.snd != nil {
			h.putSlab(st.snd)
			st.snd = nil
		}
		for _, p := range st.parked {
			h.putSlab(p.b)
		}
		clear(st.parked)
		st.parked = st.parked[:0]
	}
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
	// The kernel owns a copy of the data from here on: a bulk write into
	// an empty buffer lands in a slab, capacity-capped so a later append
	// moves the untaken rest to a heap backing instead of into the slab.
	sb := s.getBuf()
	if len(sb.sndbuf) == 0 && len(b) > rcvKeep && len(b) <= readChunk {
		st := sb.bulk()
		st.snd = append(k.h.getSlab(), b...)
		sb.sndbuf = st.snd[:len(b):len(b)]
	} else {
		sb.sndbuf = append(sb.sndbuf, b...)
		if st := sb.slabs; st != nil && st.snd != nil && len(b) > 0 {
			// The append moved the slab's untaken rest to a heap backing.
			s.parkSnd(st)
		}
	}
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
			if st := b.slabs; st != nil && st.snd != nil {
				s.parkSnd(st)
			}
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
	s.stageRcv(data)
	s.k.enqueueReady(s)
}

// Sent: the kernel sndbuf slides by accepted bytes; released only
// returns parked send slabs to the pool.
func (ke *kernelEvents) Sent(c *tcp.Conn, acked, released int) {
	s := (*Host)(ke).sockOf(c)
	if s == nil {
		return
	}
	// Release before flushing: a slab the flush parks counts only the
	// bytes still referenced after this ACK.
	s.releaseParked(released)
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
