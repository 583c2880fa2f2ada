// Package mem models the IX dataplane memory subsystem (§4.2 of the
// paper): memory is handed to a dataplane in 2 MB large pages, all hot-path
// objects come from per-hardware-thread pools of identically sized objects
// provisioned in page-sized blocks with simple free lists, and mbufs — the
// storage object for network packets — pair bookkeeping data with an
// MTU-sized buffer. On the RX path that buffer is the received frame
// itself, which the mbuf adopts instead of copying.
//
// The pools deliberately accept internal fragmentation for simplicity, and
// allocation never synchronizes: every elastic thread owns its pools.
package mem

import (
	"fmt"

	"ix/internal/fabric"
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

// MbufHeadroom is reserved at the front of an mbuf's own storage: room
// for ethernet/IP/TCP headers in front of the data, as in IX's mbufs.
const MbufHeadroom = 64

// MbufSize is the capacity of an mbuf's own storage: one MTU plus
// headroom, so a full-sized frame fits in a single buffer. It is also
// the unit of the pool's page accounting.
const MbufSize = 1536 + MbufHeadroom

// An Mbuf is a packet buffer with reference-counted, zero-copy
// semantics: incoming packets are mapped read-only into the application,
// which may hold them and release them later via recv_done; outgoing
// scatter-gather entries reference mbuf bytes that must stay immutable
// until acked.
//
// A receive mbuf adopts the frame the NIC model took off the wire rather
// than copying it: the simulated DMA write is a charge in the cost model,
// not a reason to move host bytes. The frame goes back to its sender's
// pool when the mbuf's last reference drops.
type Mbuf struct {
	data  []byte        // backing: the adopted frame's bytes, or own
	frame *fabric.Frame // the adopted frame, released at the last Unref
	own   []byte        // storage of the mbuf's own, made on first use
	off   int           // start of valid data
	len   int           // length of valid data
	refs  int
	pool  *MbufPool

	// ReadOnly marks the buffer as mapped read-only into user space.
	ReadOnly bool
	// Owner is an opaque tag identifying the elastic thread the buffer
	// was last delivered to (its pool's thread until then); the dune
	// gate uses it to reject cross-thread recv_done calls.
	Owner int
}

// Reset prepares a freshly allocated mbuf: data begins at the headroom
// offset with zero length.
func (m *Mbuf) Reset() {
	m.data = m.own
	m.off = MbufHeadroom
	m.len = 0
	m.ReadOnly = false
}

// Bytes returns the valid data in the mbuf.
func (m *Mbuf) Bytes() []byte { return m.data[m.off : m.off+m.len] }

// Adopt makes the received frame f the mbuf's data, without copying.
// The mbuf takes over the obligation to release f: its last Unref
// returns the frame to its sender's pool.
//
//ix:hotpath
func (m *Mbuf) Adopt(f *fabric.Frame) {
	m.frame = f
	m.data = f.Data[:cap(f.Data)]
	m.off = 0
	m.len = len(f.Data)
}

// Intact reports whether the mbuf holds an adopted frame that is still
// intact (fabric.Frame.Intact): its bytes are the sender's, with the
// checksum offloaded, so verifying them cannot fail.
func (m *Mbuf) Intact() bool { return m.frame != nil && m.frame.Intact }

// Payload returns the TCP payload the adopted frame carries by reference
// (fabric.Frame.Payload), nil when the payload, if any, lies in Bytes.
// It stays valid, like Bytes, until the last Unref.
func (m *Mbuf) Payload() []byte {
	if m.frame == nil {
		return nil
	}
	return m.frame.Payload
}

// store returns the mbuf's own storage, making it on first use.
func (m *Mbuf) store() []byte {
	if m.own == nil {
		m.own = make([]byte, MbufSize)
	}
	return m.own
}

// SetData copies b into the mbuf's own storage (after headroom) and
// sets the length: the entry point for bytes that did not arrive as a
// frame. It panics if b exceeds the storage capacity.
func (m *Mbuf) SetData(b []byte) {
	if len(b) > MbufSize-MbufHeadroom {
		panic(fmt.Sprintf("mem: frame of %d bytes exceeds mbuf capacity", len(b)))
	}
	m.data = m.store()
	m.off = MbufHeadroom
	m.len = copy(m.data[m.off:], b)
}

// Append extends the valid data with b and returns the number of bytes
// appended (bounded by remaining capacity).
//
//ix:hotpath
func (m *Mbuf) Append(b []byte) int {
	if m.data == nil {
		m.data = m.store()
	}
	n := copy(m.data[m.off+m.len:], b)
	m.len += n
	return n
}

// Ref takes an additional reference on the buffer.
func (m *Mbuf) Ref() { m.refs++ }

// Unref drops a reference, returning the buffer to its pool — and an
// adopted frame to its sender's pool — when the count reaches zero.
// Unref of an already-free buffer panics: it is the moral equivalent of
// a double free.
//
//ix:hotpath
func (m *Mbuf) Unref() {
	if m.refs <= 0 {
		panic("mem: mbuf double free")
	}
	m.refs--
	if m.refs == 0 {
		if f := m.frame; f != nil {
			m.frame = nil
			m.data = nil
			f.Release()
		}
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

	spare int // page-backed mbufs not yet materialized
	inUse int

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
