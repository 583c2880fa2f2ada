// TX arena chunks: the memory behind every stack's transmit path.
//
// The paper's sendv contract (§3.3, §4.5) is that the application hands
// buffers to the dataplane and may not touch them until the `sent` event
// condition reports the peer's acknowledgment. Each connection's
// TxArena implements that contract over pooled, fixed-size chunks: a
// send appends message bytes to the arena, TCP's scatter-gather input
// and retransmission queue reference arena bytes in place, and a release
// cursor — advanced only by cumulative ACK — returns drained chunks to
// the pool. libix and the Linux and mTCP socket layers (sockcore) all
// hold their send bytes this way. Chunks follow the §4.2 region model:
// per-thread pools provisioned from a large-page grant, free lists, no
// synchronization.
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
// transmit path (Pending's views, TCP retransmission segments and the
// frames that carry them by reference) and must stay immutable.
//
// The model sees a TxChunkSize chunk; the host backs only the bytes
// written. buf starts at txChunkMinBuf and doubles, copying, up to
// TxChunkSize. Views handed out before a growth keep pointing into the
// old buffer, which is never written again, so they stay immutable and
// the garbage collector keeps the old buffer for as long as a view does.
// A pooled chunk keeps its largest buffer.
type TxChunk struct {
	buf []byte // host memory behind the written bytes; len(buf) == cap(buf)
	// used and rel are the chunk's write cursor and the bytes of it its
	// arena has released (only the oldest chunk's is ever nonzero); both
	// are at most TxChunkSize.
	used, rel int16
	// frames counts the frames in flight that carry bytes of the chunk by
	// reference (fabric.Backing); retired marks a chunk its arena has
	// released while some still did, which the pool takes back at the
	// last Unpin.
	frames  int16
	retired bool
	pool    *TxChunkPool
	next    *TxChunk // the arena's next newer chunk; the newest links to the oldest
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
// extended (TxArena.Pending cuts fresh ones instead).
//
//ix:hotpath
func (k *TxChunk) Append(b []byte) []byte {
	end := int(k.used) + min(len(b), k.Room())
	if end > len(k.buf) {
		k.grow(end)
	}
	v := k.buf[k.used:end:end]
	copy(v, b)
	k.used = int16(end)
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
	k.used, k.rel = 0, 0
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
	// low is the shortest the free list has been over the last
	// txTrimEvery allocations, counted in sinceTrim: chunks below it
	// went unused all that while (trim).
	low, sinceTrim int

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
		p.low = min(p.low, n-1)
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
	p.inUse++
	p.Allocs++
	if p.sinceTrim++; p.sinceTrim == txTrimEvery {
		p.trim()
	}
	return k
}

// txTrimEvery is the allocations between two trims of a pool.
const txTrimEvery = 1024

// trim drops the host buffers of the free chunks no allocation reached
// since the last trim, the bottom of the LIFO free list: the host keeps
// the memory its senders keep using, not the peak of a burst long past.
// The modelled chunks stay pooled, and a chunk taken again regrows its
// buffer as it is written.
func (p *TxChunkPool) trim() {
	for _, k := range p.free[:p.low] {
		k.buf = nil
	}
	p.low, p.sinceTrim = len(p.free), 0
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

// A TxArena is one connection's FIFO transmit arena: the one place a
// stack holds written bytes until the peer acknowledges them. Appends go
// to the newest chunk. Two cursors trail them: the taken cursor, which
// Took advances as TCP accepts bytes, and the release cursor, which
// Release advances as TCP reports segments fully acknowledged. Bytes
// behind the write cursor are immutable until the release cursor passes
// them: untaken ones are what Pending hands TCP, taken ones are what the
// retransmission queue references in place. Chunks return to the pool
// the moment the release cursor passes them, so a connection in
// request-response steady state cycles one chunk through the free list
// with no allocation, and an idle one holds none.
type TxArena struct {
	pool *TxChunkPool
	// tail is the write chunk. The chunks held form a ring through next,
	// from tail.next, the oldest, round to tail, so the arena needs no
	// list of its own and packs into three words.
	tail    *TxChunk
	live    int32 // appended, not yet released
	untaken int32 // appended, not yet taken
}

// Init points the arena at its chunk pool.
func (a *TxArena) Init(pool *TxChunkPool) { a.pool = pool }

// Live returns bytes appended but not yet released.
func (a *TxArena) Live() int { return int(a.live) }

// Untaken returns bytes appended but not yet taken.
func (a *TxArena) Untaken() int { return int(a.untaken) }

// Chunks returns the number of chunks the arena currently holds.
func (a *TxArena) Chunks() int {
	n := 0
	for k := a.tail; k != nil; k = k.next {
		if n++; k.next == a.tail {
			break
		}
	}
	return n
}

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
	k := a.tail
	if k == nil || k.Room() == 0 {
		if k = a.pool.Alloc(); k == nil {
			return nil
		}
		if a.tail == nil {
			k.next = k
		} else {
			k.next, a.tail.next = a.tail.next, k
		}
		a.tail = k
	}
	v := k.Append(b)
	a.live += int32(len(v))
	a.untaken += int32(len(v))
	return v
}

// Write appends as much of b as the pool allows and returns the count:
// fewer than len(b) only when the pool ran dry.
//
//ix:hotpath
func (a *TxArena) Write(b []byte) int {
	n := 0
	for n < len(b) {
		v := a.Append(b[n:])
		if len(v) == 0 {
			break
		}
		n += len(v)
	}
	return n
}

// Pending appends to sg a view of the untaken bytes of each chunk that
// holds some, oldest first, cut from the chunk's current buffer (a view
// Append returned may lie in a buffer the chunk has since grown out of),
// and to backs the chunk itself, so frames may carry the views by
// reference. It returns both.
//
//ix:hotpath
func (a *TxArena) Pending(sg [][]byte, backs []fabric.Backing) ([][]byte, []fabric.Backing) {
	if a.untaken == 0 {
		return sg, backs
	}
	skip := int(a.live - a.untaken) // taken bytes, oldest first
	for k := a.tail.next; ; k = k.next {
		if from := int(k.rel) + skip; from < int(k.used) {
			sg = append(sg, k.buf[from:k.used:k.used])
			backs = append(backs, k)
			skip = 0
		} else {
			skip = from - int(k.used)
		}
		if k == a.tail {
			return sg, backs
		}
	}
}

// Took advances the taken cursor by the n bytes TCP accepted of what
// Pending handed it.
//
//ix:hotpath
func (a *TxArena) Took(n int) { a.untaken -= int32(n) }

// Release advances the release cursor by n taken bytes — the ACK-driven
// reclamation step. Chunks the cursor passes return to the pool; the
// write chunk does too once every appended byte is released.
//
//ix:hotpath
func (a *TxArena) Release(n int) {
	a.live -= int32(max(n, 0))
	for n > 0 && a.tail != nil {
		k := a.tail.next
		left := int(k.used - k.rel)
		if n < left {
			k.rel += int16(n)
			return
		}
		n -= left
		a.drop(k)
	}
}

// drop returns the oldest chunk k to the pool.
//
//ix:hotpath
func (a *TxArena) drop(k *TxChunk) {
	if k == a.tail {
		a.tail = nil
	} else {
		a.tail.next = k.next
	}
	k.next = nil
	k.Release()
}

// FootprintBytes returns the bytes the arena pins right now: held
// chunks, each charged as the modelled chunk (txChunkFootprint — a
// chunk is pinned in full no matter how little of it is written, or how
// small its host buffer still is). Part of the memprobe per-connection
// accounting contract; pool free lists are amortized across the
// population and excluded.
func (a *TxArena) FootprintBytes() int64 { return int64(a.Chunks()) * txChunkFootprint }

// ReleaseAll returns every chunk to the pool regardless of the cursors.
// Only legal once nothing references the arena — i.e. the owning
// connection is dead and its retransmission queue dropped.
func (a *TxArena) ReleaseAll() {
	for a.tail != nil {
		a.drop(a.tail.next)
	}
	a.live, a.untaken = 0, 0
}
