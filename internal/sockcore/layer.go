package sockcore

import (
	"unsafe"

	"ix/internal/mem"
	"ix/internal/memprobe"
	"ix/internal/tcp"
)

// Layer is the socket layer over one TCP engine (per host on Linux, per
// core on mTCP): the engine's tcp.Events, a slot table resolving the
// engine's cookie to its socket, and the pools sockets borrow staging
// from — plain LIFO free lists, so the hot objects stay cache-warm.
type Layer struct {
	// Accepting returns the owner of a socket the engine just accepted.
	Accepting func() *Owner

	socks     Table[Sock]
	bufFree   []*buf
	bulkFree  []*bulk
	slabFree  []*slab
	slabsMade int // every slab ever allocated
}

var _ tcp.Events = (*Layer)(nil)

// Reserve presizes the socket table for n connections.
func (l *Layer) Reserve(n int) { l.socks.Reserve(n) }

// sock resolves an engine connection's socket (nil before accept and after Dead).
func (l *Layer) sock(c *tcp.Conn) *Sock { return l.socks.Lookup(c.Cookie) }

func (l *Layer) Accepted(c *tcp.Conn) {
	s := &Sock{o: l.Accepting(), conn: c, flags: acceptPending}
	c.Cookie = l.socks.Grant(s)
	s.ready()
}

// Connected wakes the thread that issued the connect, whichever context
// processed the packet (DESIGN.md, "Socket-event routing").
func (l *Layer) Connected(c *tcp.Conn, ok bool) {
	s := l.sock(c)
	if s == nil {
		return
	}
	s.flags |= connectedPending
	if ok {
		s.flags |= connectedOK
	} else {
		// Terminal: a failed active open never reaches Dead (the engine
		// reports SynSent teardown as Connected(false) only), so the
		// cookie slot is released here.
		s.flags |= dead
		l.socks.Revoke(c.Cookie)
	}
	s.ready()
}

// Recv stages in-order payload, modelling skb retention without holding
// the mbuf; the one copy is charged at read time.
func (l *Layer) Recv(c *tcp.Conn, _ *mem.Mbuf, data []byte) {
	s := l.sock(c)
	if s == nil {
		return
	}
	s.stageRcv(data)
	s.ready()
}

// Sent slides the send staging by accepted bytes; released only returns
// parked send slabs to the pool.
func (l *Layer) Sent(c *tcp.Conn, acked, released int) {
	s := l.sock(c)
	if s == nil {
		return
	}
	// Release before flushing: a slab the flush parks counts only the
	// bytes still referenced after this ACK. Then an ACK-clocked flush,
	// and the owed FIN if that drained the staging.
	s.releaseParked(released)
	s.flushSnd()
	s.finishClose()
	// Wake the app for write progress only while it still has staged
	// bytes (libevent-style write events are enabled on demand).
	if acked > 0 && s.Unsent() > 0 && s.flags&closing == 0 {
		s.sentPending += int32(acked)
		s.ready()
	}
	// Writable-again edge: a writer that saw a short Send wakes once, and
	// only once the staging has actually reopened, so a fully drained one
	// (which the wake above never covers) still signals.
	if s.flags&wantReady != 0 && s.Unsent() < sndbufMax {
		s.flags &^= wantReady
		s.flags |= readyPending
		s.ready()
	}
}

func (l *Layer) RemoteClosed(c *tcp.Conn) {
	s := l.sock(c)
	if s == nil {
		return
	}
	s.flags |= eofPending
	s.ready()
}

func (l *Layer) Dead(c *tcp.Conn, _ tcp.Reason) {
	s := l.sock(c)
	if s == nil {
		return
	}
	l.socks.Revoke(c.Cookie)
	s.flags |= deadPending
	s.ready()
}

// Slabs reports the layer's staging slabs: attached to sockets (queued
// bytes or awaiting release), and idle on the free list.
func (l *Layer) Slabs() (inUse, free int) {
	return l.slabsMade - len(l.slabFree), len(l.slabFree)
}

// SockBytes and BufBytes are what Footprint charges for each socket and
// for each attached staging buffer, before the buffer's backings.
const (
	SockBytes = int64(unsafe.Sizeof(Sock{}))
	BufBytes  = int64(unsafe.Sizeof(buf{}))
)

// Footprint implements the memprobe accounting contract over engine st:
// its tally, the socket table, each socket and — only while attached —
// its buffers with their capacities and each slab (SlabSize bytes).
func (l *Layer) Footprint(st *tcp.Stack) memprobe.Footprint {
	f := st.Footprint()
	f.Bytes += l.socks.Bytes()
	f.Pooled += len(l.bufFree) + len(l.slabFree)
	st.EachConn(func(c *tcp.Conn) {
		s := l.sock(c)
		if s == nil {
			return // embryonic: no socket until accept
		}
		f.Bytes += SockBytes
		b := s.buf
		if b == nil {
			return
		}
		f.Attached++
		f.Bytes += BufBytes + int64(cap(b.rcvbuf))
		bk := b.bulk
		if bk == nil || bk.snd == nil {
			f.Bytes += int64(cap(b.sndbuf)) // a slab-backed sndbuf is counted with its slab
		}
		if bk != nil {
			n := bk.count()
			f.Attached += n
			f.Bytes += int64(n) * SlabSize
		}
	})
	return f
}
