// Package mem models the IX dataplane memory subsystem (§4.2 of the
// paper): memory is handed to a dataplane in 2 MB large pages, all hot-path
// objects come from per-hardware-thread pools of identically sized objects
// provisioned in page-sized blocks with simple free lists, and mbufs — the
// storage object for network packets — are contiguous chunks of
// bookkeeping data plus an MTU-sized buffer used for both RX and TX.
//
// The pools deliberately accept internal fragmentation for simplicity, and
// allocation never synchronizes: every elastic thread owns its pools.
package mem

import (
	"fmt"
)

// PageSize is the large-page granularity at which the control plane grants
// memory to dataplanes (2 MB, §4.2).
const PageSize = 2 << 20

// A Region is the memory the control plane has allocated to one dataplane,
// in large pages. Pools draw pages from a region; exhausting the region
// makes allocation fail, which models the coarse-grained provisioning of
// the control plane.
type Region struct {
	limitPages int
	usedPages  int
}

// NewRegion returns a region with capacity for pages large pages.
func NewRegion(pages int) *Region {
	return &Region{limitPages: pages}
}

// TakePage accounts one page from the region; it reports whether a page
// was available.
func (r *Region) TakePage() bool {
	if r.usedPages >= r.limitPages {
		return false
	}
	r.usedPages++
	return true
}

// Used returns the number of pages consumed.
func (r *Region) Used() int { return r.usedPages }

// Cap returns the region's capacity in pages.
func (r *Region) Cap() int { return r.limitPages }

// Grow adds pages to the region (control plane granting more memory).
func (r *Region) Grow(pages int) { r.limitPages += pages }

// MbufHeadroom is reserved at the front of each mbuf so the stack can
// prepend ethernet/IP/TCP headers without copying the payload.
const MbufHeadroom = 64

// MbufSize is the payload capacity of one mbuf: one MTU plus headroom,
// so a full-sized frame fits in a single buffer.
const MbufSize = 1536 + MbufHeadroom

// An Mbuf is a fixed-size packet buffer with reference-counted, zero-copy
// semantics: incoming packets are mapped read-only into the application,
// which may hold them and release them later via recv_done; outgoing
// scatter-gather entries reference mbuf bytes that must stay immutable
// until acked.
type Mbuf struct {
	buf  [MbufSize]byte
	off  int // start of valid data
	len  int // length of valid data
	refs int
	pool *MbufPool

	// ReadOnly marks the buffer as mapped read-only into user space.
	ReadOnly bool
	// Owner is an opaque tag identifying the elastic thread whose pool
	// the buffer belongs to; the dune gate uses it to reject cross-thread
	// recv_done calls.
	Owner int
}

// Reset prepares a freshly allocated mbuf: data begins at the headroom
// offset with zero length.
func (m *Mbuf) Reset() {
	m.off = MbufHeadroom
	m.len = 0
	m.ReadOnly = false
}

// Bytes returns the valid data in the mbuf.
func (m *Mbuf) Bytes() []byte { return m.buf[m.off : m.off+m.len] }

// SetData copies b into the buffer body (after headroom) and sets the
// length. It panics if b exceeds the buffer capacity.
//
//ix:hotpath
func (m *Mbuf) SetData(b []byte) {
	if len(b) > MbufSize-MbufHeadroom {
		//ixvet:ignore(hotpath) panic path: an oversized frame is a stack bug, never steady state
		panic(fmt.Sprintf("mem: frame of %d bytes exceeds mbuf capacity", len(b)))
	}
	m.off = MbufHeadroom
	m.len = copy(m.buf[m.off:], b)
}

// Append extends the valid data with b and returns the number of bytes
// appended (bounded by remaining capacity).
//
//ix:hotpath
func (m *Mbuf) Append(b []byte) int {
	n := copy(m.buf[m.off+m.len:], b)
	m.len += n
	return n
}

// Prepend grows the valid data forward into the headroom by n bytes and
// returns the slice covering the new front. It panics if headroom is
// insufficient — a stack bug, not a runtime condition.
func (m *Mbuf) Prepend(n int) []byte {
	if n > m.off {
		panic("mem: insufficient mbuf headroom")
	}
	m.off -= n
	m.len += n
	return m.buf[m.off : m.off+n]
}

// Trim shortens the valid data to length n.
func (m *Mbuf) Trim(n int) {
	if n < m.len {
		m.len = n
	}
}

// Len returns the number of valid bytes.
func (m *Mbuf) Len() int { return m.len }

// Refs returns the current reference count.
func (m *Mbuf) Refs() int { return m.refs }

// Ref takes an additional reference on the buffer.
func (m *Mbuf) Ref() { m.refs++ }

// Unref drops a reference, returning the buffer to its pool when the
// count reaches zero. Unref of an already-free buffer panics: it is the
// moral equivalent of a double free.
//
//ix:hotpath
func (m *Mbuf) Unref() {
	if m.refs <= 0 {
		panic("mem: mbuf double free")
	}
	m.refs--
	if m.refs == 0 {
		m.pool.put(m)
	}
}

// MbufPool is a per-thread pool of mbufs provisioned from a Region in
// page-sized blocks. Page accounting happens at page granularity, but the
// Mbuf objects themselves materialize lazily on first use — provisioning
// a pool does not zero 2 MB of buffers up front.
type MbufPool struct {
	region *Region
	free   []*Mbuf
	// Owner tags buffers allocated from this pool.
	Owner int

	allocated int // mbufs backed by taken pages (page granularity)
	spare     int // page-backed mbufs not yet materialized
	inUse     int

	// Stats.
	Allocs    uint64
	Frees     uint64
	Exhausted uint64 // allocation failures
}

// mbufsPerPage is how many mbufs one large page provisions.
const mbufsPerPage = PageSize / MbufSize

// NewMbufPool returns a pool drawing from region, tagged with owner.
func NewMbufPool(region *Region, owner int) *MbufPool {
	return &MbufPool{region: region, Owner: owner}
}

// Alloc returns a reset mbuf with one reference, or nil if the region is
// exhausted (the caller drops the packet, as real IX drops when a pool
// runs dry).
//
//ix:hotpath
func (p *MbufPool) Alloc() *Mbuf {
	var m *Mbuf
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		if p.spare == 0 {
			if !p.region.TakePage() {
				p.Exhausted++
				return nil
			}
			p.spare = mbufsPerPage
			p.allocated += mbufsPerPage
		}
		p.spare--
		//ixvet:ignore(hotpath) lazy materialization: amortized over the page, steady state hits the free list
		m = &Mbuf{pool: p, Owner: p.Owner}
	}
	m.Reset()
	m.refs = 1
	m.ReadOnly = false
	p.inUse++
	p.Allocs++
	return m
}

//ix:hotpath
func (p *MbufPool) put(m *Mbuf) {
	p.inUse--
	p.Frees++
	p.free = append(p.free, m)
}

// InUse returns the number of live mbufs.
func (p *MbufPool) InUse() int { return p.inUse }

// Provisioned returns the number of mbufs backed by pages so far.
func (p *MbufPool) Provisioned() int { return p.allocated }
