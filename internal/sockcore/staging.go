package sockcore

import "ix/internal/mem"

// rcvKeep is the two-size receive rule's threshold: up to rcvKeep bytes
// queued for reading stage in an exact-size buffer, anything more in
// SlabSize slabs from the layer's pool (DESIGN.md, "What a byte costs").
const rcvKeep = 2 << 10

// SlabSize is the size of one receive staging slab.
const SlabSize = 64 << 10

// buf is the staging of one socket with bytes queued.
type buf struct {
	// bulk is the receive slab chain, attached while a slab is. putBuf
	// releases it before the buffers, so a socket without buffers has no
	// slabs.
	bulk *bulk
	// rcvbuf holds received bytes while all of them fit rcvKeep; a read
	// takes it whole, and a drained backing of at most rcvKeep stays with
	// the pooled object, so request-response traffic recycles
	// allocation-free.
	rcvbuf []byte
	// tx holds written bytes from the write until the sent events'
	// released count passes them: TCP takes them from it as the window
	// allows and retransmits from it in place (DESIGN.md, "Zero-copy TX").
	tx mem.TxArena
}

// bulk is the receive slab chain in stream order; every slab but the
// last is full.
type bulk struct{ rcv [][]byte }

// getSlab draws an empty slab from the pool.
//
//ix:hotpath
func (l *Layer) getSlab() []byte {
	if n := len(l.slabFree); n > 0 {
		sl := l.slabFree[n-1]
		l.slabFree[n-1] = nil
		l.slabFree = l.slabFree[:n-1]
		return sl
	}
	l.slabsMade++
	//ixvet:ignore(hotpath) pool miss: once per unit of peak bulk concurrency, steady state hits the free list
	return make([]byte, 0, SlabSize)
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
		s.buf.tx.Init(l.Tx)
	}
	return s.buf
}

// getBulk returns the staging's slab chain, borrowing it from the pool
// on the socket's first slab.
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
// slab chain when it is empty, then the buffers when both directions
// drained. Read bytes stay queued until readDone, after OnRecv has
// returned; written bytes until the sent events release them.
//
//ix:hotpath
func (s *Sock) putBuf() {
	b := s.buf
	if b == nil {
		return
	}
	l := s.o.Layer
	if bk := b.bulk; bk != nil {
		if len(bk.rcv) > 0 {
			return
		}
		b.bulk = nil
		l.bulkFree = append(l.bulkFree, bk)
	}
	if len(b.rcvbuf) > 0 || b.tx.Live() > 0 {
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
		bk.rcv = append(bk.rcv, append(l.getSlab(), b.rcvbuf...))
		b.rcvbuf = keepSmall(b.rcvbuf)
	}
	bk := b.bulk
	for len(data) > 0 {
		last := len(bk.rcv) - 1
		if len(bk.rcv[last]) == SlabSize {
			bk.rcv = append(bk.rcv, l.getSlab())
			last++
		}
		n := min(len(data), SlabSize-len(bk.rcv[last]))
		bk.rcv[last] = append(bk.rcv[last], data[:n]...)
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
	n, size := 1, len(bk.rcv[0])
	for n < len(bk.rcv) && size+len(bk.rcv[n]) <= s.o.ReadMax {
		size += len(bk.rcv[n])
		n++
	}
	if n == 1 {
		return bk.rcv[0], 1
	}
	o := s.o
	o.gather = o.gather[:0]
	for _, sl := range bk.rcv[:n] {
		o.gather = append(o.gather, sl...)
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
	l := s.o.Layer
	for _, sl := range bk.rcv[:n] {
		l.slabFree = append(l.slabFree, sl[:0])
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

// release applies a sent event's released count to the send arena,
// returning the staging once nothing is left queued.
//
//ix:hotpath
func (s *Sock) release(n int) {
	if b := s.buf; b != nil && n > 0 {
		b.tx.Release(n)
		s.putBuf()
	}
}

// dropStaging tears a dead socket's staging down: the engine dropped its
// references with the flow, so every chunk and slab returns to its pool
// and unread or unsent bytes die with the socket.
func (s *Sock) dropStaging() {
	b := s.buf
	if b == nil {
		return
	}
	b.rcvbuf = keepSmall(b.rcvbuf)
	b.tx.ReleaseAll()
	if bk := b.bulk; bk != nil {
		s.dropRcv(len(bk.rcv))
	}
	s.putBuf()
}

// Staged reports what s holds: written bytes TCP has not taken, bytes it
// took and has not released, and receive slabs.
func (s *Sock) Staged() (untaken, unreleased, slabs int) {
	b := s.buf
	if b == nil {
		return 0, 0, 0
	}
	if b.bulk != nil {
		slabs = len(b.bulk.rcv)
	}
	return b.tx.Untaken(), b.tx.Live() - b.tx.Untaken(), slabs
}
