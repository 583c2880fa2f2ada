package sockcore

import (
	"math"

	"ix/internal/fabric"
)

// rcvKeep is the two-size staging rule's threshold: up to rcvKeep bytes
// queued for reading, and a write of up to rcvKeep, stage in exact-size
// buffers; anything larger in SlabSize slabs from the layer's pool
// (DESIGN.md, "What a byte costs").
const rcvKeep = 2 << 10

// SlabSize is the size of one bulk staging slab.
const SlabSize = 64 << 10

// A slab is one bulk staging buffer from its layer's pool. Frames that
// carry a send slab's bytes by reference pin it (fabric.Backing), so a
// slab put back while some still do rejoins the pool at the last Unpin.
type slab struct {
	b       []byte
	l       *Layer
	frames  int32
	retired bool
}

var _ fabric.Backing = (*slab)(nil)

// Pin takes a frame's reference on the slab's bytes.
//
//ix:hotpath
func (sl *slab) Pin() { sl.frames++ }

// Unpin drops a frame's reference; the last one returns a slab put back
// meanwhile to the pool.
//
//ix:hotpath
func (sl *slab) Unpin() {
	if sl.frames--; sl.frames == 0 && sl.retired {
		sl.retired = false
		sl.l.putSlab(sl)
	}
}

// buf is the staging of one socket with bytes queued.
type buf struct {
	// bulk is the slab half, attached while a slab is. putBuf releases it
	// before the buffers, so a socket without buffers has no slabs.
	bulk *bulk
	// rcvbuf holds received bytes while all of them fit rcvKeep; a read
	// takes it whole, and a drained backing of at most rcvKeep stays with
	// the pooled object, so request-response traffic recycles
	// allocation-free.
	rcvbuf []byte
	// sndbuf holds bytes written beyond the TCP window: a view of bulk.snd
	// for a bulk write into an empty buffer, else an exact-size heap
	// backing. Retransmission segments reference the transmitted prefix in
	// place until acknowledged, so a drained heap backing is dropped and a
	// slab is parked until the released count passes its last byte.
	sndbuf []byte
}

// bulk is the slab half of a socket's staging.
type bulk struct {
	// rcv is the receive chain in stream order; every slab but the last
	// is full.
	rcv []*slab
	// snd backs sndbuf until TCP has taken all of it.
	snd *slab
	// parked holds slabs TCP has taken and may still retransmit from,
	// oldest first.
	parked []parkedSlab
}

// parkedSlab is a send slab awaiting release: left is how many more
// released bytes must be reported before its last byte is released.
type parkedSlab struct {
	s    *slab
	left int
}

// count returns the slabs attached.
func (bk *bulk) count() int {
	n := len(bk.rcv) + len(bk.parked)
	if bk.snd != nil {
		n++
	}
	return n
}

// getSlab draws an empty slab from the pool.
//
//ix:hotpath
func (l *Layer) getSlab() *slab {
	if n := len(l.slabFree); n > 0 {
		sl := l.slabFree[n-1]
		l.slabFree[n-1] = nil
		l.slabFree = l.slabFree[:n-1]
		return sl
	}
	l.slabsMade++
	//ixvet:ignore(hotpath) pool miss: once per unit of peak bulk concurrency, steady state hits the free list
	return &slab{b: make([]byte, 0, SlabSize), l: l}
}

// putSlab returns a slab the socket no longer references to the pool,
// or, while frames still carry its bytes, leaves that to the last Unpin.
//
//ix:hotpath
func (l *Layer) putSlab(sl *slab) {
	if sl.frames > 0 {
		sl.retired = true
		return
	}
	sl.b = sl.b[:0]
	l.slabFree = append(l.slabFree, sl)
}

// getBuf returns the socket's staging buffers, borrowing them from the
// pool when none are attached.
//
//ix:hotpath
func (s *Sock) getBuf() *buf {
	if s.buf != nil {
		return s.buf
	}
	l := s.o.Layer
	if n := len(l.bufFree); n > 0 {
		s.buf = l.bufFree[n-1]
		l.bufFree[n-1] = nil
		l.bufFree = l.bufFree[:n-1]
	} else {
		//ixvet:ignore(hotpath) pool miss: once per unit of peak concurrency, steady state hits the free list
		s.buf = &buf{}
	}
	return s.buf
}

// getBulk returns the staging's slab half, borrowing it from the pool on
// the socket's first slab.
//
//ix:hotpath
func (b *buf) getBulk(l *Layer) *bulk {
	if b.bulk != nil {
		return b.bulk
	}
	if n := len(l.bulkFree); n > 0 {
		b.bulk = l.bulkFree[n-1]
		l.bulkFree[n-1] = nil
		l.bulkFree = l.bulkFree[:n-1]
	} else {
		//ixvet:ignore(hotpath) pool miss: once per unit of peak bulk concurrency, steady state hits the free list
		b.bulk = &bulk{}
	}
	return b.bulk
}

// putBuf returns the staging to the pools once nothing is queued: the
// bulk half when no slab is attached, then the buffers when both drained.
// Read bytes stay queued until readDone, after OnRecv has returned.
//
//ix:hotpath
func (s *Sock) putBuf() {
	b := s.buf
	if b == nil {
		return
	}
	l := s.o.Layer
	if bk := b.bulk; bk != nil {
		if bk.count() > 0 {
			return
		}
		b.bulk = nil
		l.bulkFree = append(l.bulkFree, bk)
	}
	if len(b.rcvbuf) > 0 || len(b.sndbuf) > 0 {
		return
	}
	s.buf = nil
	l.bufFree = append(l.bufFree, b)
}

// stageRcv queues received bytes: in the small buffer while everything
// queued fits rcvKeep, else in the slab chain, whose first slab takes the
// small buffer's bytes so the stream stays in order, and which takes every
// arrival until it is read empty.
//
//ix:hotpath
func (s *Sock) stageRcv(data []byte) {
	b := s.getBuf()
	l := s.o.Layer
	if b.bulk == nil || len(b.bulk.rcv) == 0 {
		if len(b.rcvbuf)+len(data) <= rcvKeep {
			b.rcvbuf = append(b.rcvbuf, data...)
			return
		}
		bk := b.getBulk(l)
		sl := l.getSlab()
		sl.b = append(sl.b, b.rcvbuf...)
		bk.rcv = append(bk.rcv, sl)
		b.rcvbuf = keepSmall(b.rcvbuf)
	}
	bk := b.bulk
	for len(data) > 0 {
		sl := bk.rcv[len(bk.rcv)-1]
		if len(sl.b) == SlabSize {
			sl = l.getSlab()
			bk.rcv = append(bk.rcv, sl)
		}
		n := min(len(data), SlabSize-len(sl.b))
		sl.b = append(sl.b, data[:n]...)
		data = data[n:]
	}
}

// nextRead returns what one read takes, and how many slabs it drains:
// whole slabs from the chain's head while they fit ReadMax (at least one;
// several are gathered into the owner's scratch), else the whole small
// buffer. As every slab but the last is full, reading a contiguous buffer
// SlabSize bytes at a time would cut the same chunks.
func (s *Sock) nextRead() (chunk []byte, slabs int) {
	bk := s.buf.bulk
	if bk == nil || len(bk.rcv) == 0 {
		return s.buf.rcvbuf, 0
	}
	n, size := 1, len(bk.rcv[0].b)
	for n < len(bk.rcv) && size+len(bk.rcv[n].b) <= s.o.ReadMax {
		size += len(bk.rcv[n].b)
		n++
	}
	if n == 1 {
		return bk.rcv[0].b, 1
	}
	o := s.o
	o.gather = o.gather[:0]
	for _, sl := range bk.rcv[:n] {
		o.gather = append(o.gather, sl.b...)
	}
	return o.gather, n
}

// readDone drops what nextRead returned, after the OnRecv it was handed to
// has returned: drained slabs go back to the pool, the small buffer
// resets, and a socket with nothing left queued returns its staging.
//
//ix:hotpath
func (s *Sock) readDone(slabs int) {
	if slabs == 0 {
		s.buf.rcvbuf = keepSmall(s.buf.rcvbuf)
	} else {
		s.dropRcv(slabs)
	}
	s.putBuf()
}

// dropRcv returns the first n slabs of the receive chain to the pool.
func (s *Sock) dropRcv(n int) {
	bk := s.buf.bulk
	for _, sl := range bk.rcv[:n] {
		s.o.Layer.putSlab(sl)
	}
	left := copy(bk.rcv, bk.rcv[n:])
	clear(bk.rcv[left:])
	bk.rcv = bk.rcv[:left]
}

// keepSmall empties a drained small buffer, keeping a backing of at most
// rcvKeep for the next borrower and dropping a larger one.
func keepSmall(b []byte) []byte {
	if cap(b) > rcvKeep {
		return nil
	}
	return b[:0]
}

// stageSnd copies a write into the send staging. A bulk write into an
// empty buffer lands in a slab, capacity-capped so that a later append
// moves the untaken rest to a heap backing instead of into the slab.
func (s *Sock) stageSnd(b []byte) {
	sb := s.getBuf()
	if len(sb.sndbuf) == 0 && len(b) > rcvKeep && len(b) <= SlabSize {
		bk := sb.getBulk(s.o.Layer)
		sl := s.o.Layer.getSlab()
		sl.b = append(sl.b, b...)
		bk.snd = sl
		sb.sndbuf = sl.b[:len(b):len(b)]
		return
	}
	sb.sndbuf = append(sb.sndbuf, b...)
	if bk := sb.bulk; bk != nil && bk.snd != nil && len(b) > 0 {
		// The append moved the slab's untaken rest to a heap backing.
		s.parkSnd(bk)
	}
}

// parkSnd parks the slab behind sndbuf once TCP has taken all it will of
// it. Every byte TCP took is among those the engine still references, so
// the slab is free once released counts add up to that many.
func (s *Sock) parkSnd(bk *bulk) {
	sl := bk.snd
	bk.snd = nil
	left := 0
	if c := s.tcp(); c != nil {
		left = c.Unreleased() // a connection gone holds no reference
	}
	if left > 0 {
		bk.parked = append(bk.parked, parkedSlab{s: sl, left: left})
		return
	}
	s.o.Layer.putSlab(sl)
}

// releaseParked applies a sent event's released count to the parked
// slabs, returning those whose last byte it covered.
func (s *Sock) releaseParked(released int) {
	if released <= 0 || s.buf == nil {
		return
	}
	bk := s.buf.bulk
	if bk == nil || len(bk.parked) == 0 {
		return
	}
	done := 0
	for i := range bk.parked {
		p := &bk.parked[i]
		if p.left -= released; p.left <= 0 {
			s.o.Layer.putSlab(p.s)
			done = i + 1
		}
	}
	n := copy(bk.parked, bk.parked[done:])
	clear(bk.parked[n:])
	bk.parked = bk.parked[:n]
	s.putBuf()
}

// dropStaging tears a dead socket's staging down: the engine dropped its
// references with the flow, so every slab returns to the pool and unread
// or unsent bytes die with the socket.
func (s *Sock) dropStaging() {
	b := s.buf
	if b == nil {
		return
	}
	b.rcvbuf = keepSmall(b.rcvbuf)
	b.sndbuf = nil
	if bk := b.bulk; bk != nil {
		s.dropRcv(len(bk.rcv))
		if bk.snd != nil {
			s.o.Layer.putSlab(bk.snd)
			bk.snd = nil
		}
		s.releaseParked(math.MaxInt)
	}
	s.putBuf()
}

// Slabs reports the slabs attached to s: the send slab TCP has not taken
// all of (0 or 1), those parked until released, and the receive chain.
func (s *Sock) Slabs() (snd, parked, rcv int) {
	if s.buf == nil || s.buf.bulk == nil {
		return 0, 0, 0
	}
	bk := s.buf.bulk
	if bk.snd != nil {
		snd = 1
	}
	return snd, len(bk.parked), len(bk.rcv)
}
