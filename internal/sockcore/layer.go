package sockcore

import (
	"unsafe"

	"ix/internal/mem"
	"ix/internal/memprobe"
	"ix/internal/tcp"
)

// Layer is the socket layer over one TCP engine (per host on Linux, per
// core on mTCP): the engine's tcp.Events, a table resolving an engine
// connection to its socket by the connection's arena slot, and the pools
// sockets borrow staging from — plain LIFO free lists, so the hot objects
// stay cache-warm.
type Layer struct {
	// Accepting returns the owner of a socket the engine just accepted.
	Accepting func() *Owner
	// TCP is the engine; sockets name their connections in it by id.
	TCP *tcp.Stack
	// Tx is the chunk pool every socket's send arena draws from.
	Tx *mem.TxChunkPool

	socks     []*Sock // at each connection's slot, from accept to Dead
	bufFree   []*buf
	bulkFree  []*bulk
	slabFree  [][]byte
	slabsMade int // every slab ever allocated
}

var _ tcp.Events = (*Layer)(nil)

// Reserve presizes the socket table for n connections.
func (l *Layer) Reserve(n int) {
	if n > 0 && cap(l.socks) == 0 {
		l.socks = make([]*Sock, 0, tcp.SlotSpan(n))
	}
}

// sock resolves an engine connection's socket (nil before accept and after Dead).
func (l *Layer) sock(c *tcp.Conn) *Sock {
	if i := int(c.ID().Slot()); i < len(l.socks) {
		return l.socks[i]
	}
	return nil
}

// bind makes s the socket of engine connection c, and unbind undoes it.
func (l *Layer) bind(c *tcp.Conn, s *Sock) {
	i := int(c.ID().Slot())
	for i >= len(l.socks) {
		l.socks = append(l.socks, nil)
	}
	l.socks[i] = s
	s.conn = c.ID()
}

func (l *Layer) unbind(c *tcp.Conn, s *Sock) {
	l.socks[c.ID().Slot()] = nil
	s.conn = 0
}

func (l *Layer) Accepted(c *tcp.Conn) {
	s := &Sock{o: l.Accepting(), flags: acceptPending}
	l.bind(c, s)
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
		l.unbind(c, s)
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

// Sent releases what the ACK let go of, flushes what the window now
// allows, and issues the owed FIN if that drained the staging.
func (l *Layer) Sent(c *tcp.Conn, acked, released int) {
	s := l.sock(c)
	if s == nil {
		return
	}
	s.release(released)
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
	l.unbind(c, s)
	s.flags |= deadPending
	s.ready()
}

// Slabs reports the layer's receive slabs: attached to sockets, and idle
// on the free list.
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
// its buffers with the small buffer's capacity, the bytes its send arena
// holds (Linux's sk_wmem_queued, not the chunks' modelled size, which
// would weigh a 64 B response at 16 KiB) and each slab (SlabSize bytes).
func (l *Layer) Footprint(st *tcp.Stack) memprobe.Footprint {
	f := st.Footprint()
	f.Bytes += int64(cap(l.socks)) * int64(unsafe.Sizeof((*Sock)(nil)))
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
		f.Bytes += BufBytes + int64(cap(b.rcvbuf)) + int64(b.tx.Live())
		if bk := b.bulk; bk != nil {
			f.Attached += len(bk.rcv)
			f.Bytes += int64(len(bk.rcv)) * SlabSize
		}
	})
	return f
}
