// TX arena chunks: the memory behind the zero-copy libix transmit path.
//
// The paper's sendv contract (§3.3, §4.5) is that the application hands
// buffers to the dataplane and may not touch them until the `sent` event
// condition reports the peer's acknowledgment. libix implements that
// contract with a per-connection arena built from pooled, fixed-size
// chunks: Send appends message bytes to the arena, the transmit vector
// and the TCP retransmission queue reference arena bytes in place, and a
// release cursor — advanced only by cumulative ACK — returns drained
// chunks to the pool. Chunks follow the §4.2 region model: per-thread
// pools provisioned from the dataplane's large-page grant, free lists,
// no synchronization.
package mem

import (
	"unsafe"

	"ix/internal/fabric"
)

// TxChunkSize is the payload capacity of one TX arena chunk. Small
// enough that short-lived RPC traffic cycles a single chunk per
// connection, large enough that a bulk send does not fragment into
// hundreds of scatter-gather entries.
const TxChunkSize = 16 << 10

// txChunksPerPage is how many chunks one large page provisions.
const txChunksPerPage = PageSize / TxChunkSize

// txChunkMinBuf is the host buffer a chunk's first append allocates.
// It doubles from there as appends need it, so a chunk that only ever
// carries a 64 B echo response holds 256 B of host memory, not 16 KiB.
const txChunkMinBuf = 256

// txChunkFootprint is what the memory model charges for one held chunk:
// the modelled TxChunkSize bytes plus the chunk's header (every field
// but the host buffer's slice header). It does not depend on how far the
// host buffer has grown.
const txChunkFootprint = TxChunkSize + int64(unsafe.Sizeof(TxChunk{})-unsafe.Sizeof([]byte(nil)))

// A TxChunk is one fixed-size arena chunk. Bytes between the release
// cursor of its arena and its write cursor are referenced by the
// dataplane's transmit path (txq scatter-gather entries, TCP
// retransmission segments and the frames that carry them by reference)
// and must stay immutable.
//
// The model sees a TxChunkSize chunk; the host backs only the bytes
// written. buf starts at txChunkMinBuf and doubles, copying, up to
// TxChunkSize. Views handed out before a growth keep pointing into the
// old buffer, which is never written again, so they stay immutable and
// the garbage collector keeps the old buffer for as long as a view does.
// A pooled chunk keeps its largest buffer.
type TxChunk struct {
	buf  []byte // host memory behind the written bytes; len(buf) == cap(buf)
	used int32
	// frames counts the frames in flight that carry bytes of the chunk by
	// reference (fabric.Backing); retired marks a chunk its arena has
	// released while some still did, which the pool takes back at the
	// last Unpin.
	frames  int16
	retired bool
	pool    *TxChunkPool
}

var _ fabric.Backing = (*TxChunk)(nil)

// Room returns the bytes still writable.
func (k *TxChunk) Room() int { return TxChunkSize - int(k.used) }

// Pin takes a frame's reference on the chunk's bytes.
//
//ix:hotpath
func (k *TxChunk) Pin() { k.frames++ }

// Unpin drops a frame's reference; the last one hands a retired chunk
// back to its pool.
//
//ix:hotpath
func (k *TxChunk) Unpin() {
	if k.frames--; k.frames == 0 && k.retired {
		k.retired = false
		k.pool.unretire(k)
	}
}

// Append copies as much of b as fits and returns the chunk-backed view
// of the appended bytes (empty when the chunk is full). The view stays
// valid — and its bytes immutable — until the owning arena's release
// cursor passes it. Its capacity ends at its length: a later append
// may move the chunk's bytes to a larger buffer, so views are never
// extended (TxArena.Run rebases a run of them instead).
//
//ix:hotpath
func (k *TxChunk) Append(b []byte) []byte {
	end := int(k.used) + min(len(b), k.Room())
	if end > len(k.buf) {
		k.grow(end)
	}
	v := k.buf[k.used:end:end]
	copy(v, b)
	k.used = int32(end)
	return v
}

// grow moves the written bytes to a buffer of at least n bytes: the
// current size doubled (txChunkMinBuf for the first) until it holds n,
// at most TxChunkSize.
//
//ix:hotpath
func (k *TxChunk) grow(n int) {
	c := max(2*len(k.buf), txChunkMinBuf)
	for c < n {
		c *= 2
	}
	//ixvet:ignore(hotpath) at most 7 buffers per chunk object (256 B doubling to 16 KiB), and a pooled chunk keeps its largest, so the steady state allocates nothing
	buf := make([]byte, min(c, TxChunkSize))
	copy(buf, k.buf[:k.used])
	k.buf = buf
}

// Release returns the chunk to its pool. Only legal when no live
// reference to the chunk's bytes remains.
//
//ix:hotpath
func (k *TxChunk) Release() {
	k.used = 0
	k.pool.put(k)
}

// TxChunkPool is a per-thread free-list pool of TX arena chunks,
// provisioned from a Region in page-sized blocks (chunks materialize
// lazily, like mbufs).
//
// A chunk released while frames still pin it is free as far as the
// modelled memory goes, but its bytes are not yet writable: it is
// counted in retired until its last Unpin puts it on the free list. An
// Alloc that finds only retired chunks free takes the slot of one and
// makes a fresh object, and the retired chunk whose slot was taken is
// dropped at its last Unpin. So the pool's counts, and every
// allocation's outcome, are those of a pool no frame ever pinned.
type TxChunkPool struct {
	region *Region
	free   []*TxChunk
	// Owner tags the elastic thread the pool belongs to.
	Owner int

	spare   int // page-backed chunks not yet materialized
	retired int // free chunks still pinned by frames
	inUse   int

	// Stats.
	Allocs    uint64
	Exhausted uint64 // allocation failures (region dry)
}

// NewTxChunkPool returns a pool drawing from region, tagged with owner.
func NewTxChunkPool(region *Region, owner int) *TxChunkPool {
	return &TxChunkPool{region: region, Owner: owner}
}

// Alloc returns an empty chunk, or nil if the region is exhausted (the
// caller accepts fewer bytes, pushing buffering back to the app).
//
//ix:hotpath
func (p *TxChunkPool) Alloc() *TxChunk {
	var k *TxChunk
	if n := len(p.free); n > 0 {
		k = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		switch {
		case p.retired > 0:
			p.retired-- // a free slot whose object frames still pin
		case p.spare > 0:
			p.spare--
		case p.region.TakePage():
			p.spare = txChunksPerPage - 1
		default:
			p.Exhausted++
			return nil
		}
		//ixvet:ignore(hotpath) lazy materialization: amortized over the page (or a rare pinned release), steady state hits the free list
		k = &TxChunk{pool: p}
	}
	k.used = 0
	p.inUse++
	p.Allocs++
	return k
}

//ix:hotpath
func (p *TxChunkPool) put(k *TxChunk) {
	p.inUse--
	if k.frames > 0 {
		k.retired = true
		p.retired++
		return
	}
	p.free = append(p.free, k)
}

// unretire takes back a retired chunk at its last Unpin: onto the free
// list if its slot is still free, else (an Alloc stood a fresh object in
// for it) nowhere.
//
//ix:hotpath
func (p *TxChunkPool) unretire(k *TxChunk) {
	if p.retired > 0 {
		p.retired--
		p.free = append(p.free, k)
	}
}

// InUse returns the number of chunks held by arenas.
func (p *TxChunkPool) InUse() int { return p.inUse }

// Ready reports whether the next Alloc will succeed: a chunk on the
// free list, a page-backed spare awaiting materialization, or region
// capacity for another page. The send-ready condition uses this to
// avoid waking a pool-blocked writer into another failed allocation.
func (p *TxChunkPool) Ready() bool {
	return len(p.free) > 0 || p.retired > 0 || p.spare > 0 || p.region.usedPages < p.region.limitPages
}

// A TxArena is one connection's FIFO transmit arena. Appends go to the
// newest chunk; the release cursor — advanced only as TCP reports
// segments fully acknowledged — trails through the oldest. Between the
// two cursors the bytes are immutable: they are referenced in place by
// the transmit vector and the retransmission queue. Chunks return to
// the pool the moment the release cursor passes them, so a connection
// in request-response steady state cycles one chunk through the free
// list with no allocation.
type TxArena struct {
	pool   *TxChunkPool
	chunks []*TxChunk // chunks[head:] are live; the last is the write chunk
	// The cursors are int32 — head counts chunks, relOff stays below
	// TxChunkSize, live below the pending-send budget — so the arena
	// header packs with its owner (the per-connection byte budget).
	head   int32
	relOff int32 // released bytes within chunks[head]
	live   int32 // appended and not yet released bytes
}

// Init points the arena at its chunk pool.
func (a *TxArena) Init(pool *TxChunkPool) { a.pool = pool }

// Live returns bytes appended but not yet released.
func (a *TxArena) Live() int { return int(a.live) }

// Chunks returns the number of chunks the arena currently holds.
func (a *TxArena) Chunks() int { return len(a.chunks) - int(a.head) }

// Run returns a view of the write chunk's newest n bytes in its current
// buffer. libix coalesces consecutive appends to one chunk into a single
// transmit entry by replacing the entry with the run that covers it and
// the new bytes: the entry's own view may point into a buffer the chunk
// has since grown out of.
//
//ix:hotpath
func (a *TxArena) Run(n int) []byte {
	k := a.chunks[len(a.chunks)-1]
	return k.buf[int(k.used)-n : k.used : k.used]
}

// Newest returns the arena's newest n chunks, oldest first. A view
// Append returns lies in one chunk, the newest, so n views of the newest
// bytes, each in a different chunk, lie in these n in order.
func (a *TxArena) Newest(n int) []*TxChunk { return a.chunks[len(a.chunks)-n:] }

// Append copies a prefix of b into the arena and returns the
// arena-backed view of it; the view's bytes stay immutable until
// Release passes them. A shorter-than-b view means the write chunk
// filled — call again with the remainder. An empty view means the pool
// is exhausted.
//
//ix:hotpath
func (a *TxArena) Append(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	var k *TxChunk
	if n := len(a.chunks); n > int(a.head) {
		k = a.chunks[n-1]
	}
	if k == nil || k.Room() == 0 {
		k = a.pool.Alloc()
		if k == nil {
			return nil
		}
		a.chunks = append(a.chunks, k)
	}
	v := k.Append(b)
	a.live += int32(len(v))
	return v
}

// Release advances the release cursor by n bytes — the ACK-driven
// reclamation step. Chunks the cursor has fully passed return to the
// pool; the write chunk is released too once every appended byte is
// acknowledged (the request-response steady state), so idle connections
// pin no chunks.
//
//ix:hotpath
func (a *TxArena) Release(n int) {
	if n <= 0 {
		return
	}
	a.live -= int32(n)
	if a.live < 0 {
		a.live = 0
	}
	a.relOff += int32(n)
	for int(a.head) < len(a.chunks) {
		k := a.chunks[a.head]
		if a.relOff < k.used {
			break
		}
		if int(a.head) == len(a.chunks)-1 && a.live > 0 {
			// The write chunk still holds unreleased bytes beyond the
			// cursor arithmetic (defensive; cannot happen when releases
			// mirror appends).
			break
		}
		a.relOff -= k.used
		k.Release()
		a.chunks[a.head] = nil
		a.head++
	}
	if int(a.head) == len(a.chunks) {
		// Fully drained. A one-slot backing (the request-response steady
		// state: one chunk cycling through the free list) is kept so the
		// steady cycle stays allocation-free; anything larger — grown by
		// a bulk send — is released, so an idle connection pins at most
		// one pointer slot.
		if cap(a.chunks) > 1 {
			a.chunks = nil
		} else {
			a.chunks = a.chunks[:0]
		}
		a.head = 0
		a.relOff = 0
	}
}

// FootprintBytes returns the bytes the arena pins right now: held
// chunks, each charged as the modelled chunk (txChunkFootprint — a
// chunk is pinned in full no matter how little of it is written, or how
// small its host buffer still is), plus the chunks-slice backing. Part
// of the memprobe per-connection accounting contract; pool free lists
// are amortized across the population and excluded.
func (a *TxArena) FootprintBytes() int64 {
	return int64(a.Chunks())*txChunkFootprint +
		int64(cap(a.chunks))*int64(unsafe.Sizeof((*TxChunk)(nil)))
}

// ReleaseAll returns every chunk to the pool regardless of the release
// cursor. Only legal once nothing references the arena — i.e. the
// owning connection is dead and its retransmission queue dropped.
func (a *TxArena) ReleaseAll() {
	for i := int(a.head); i < len(a.chunks); i++ {
		a.chunks[i].Release()
		a.chunks[i] = nil
	}
	a.chunks = nil
	a.head = 0
	a.relOff = 0
	a.live = 0
}
