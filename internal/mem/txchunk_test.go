package mem

import (
	"bytes"
	"testing"

	"ix/internal/fabric"
)

// TestTxChunkPoolRegionAccounting: chunks provision from the region at
// page granularity and recycle through the free list without taking
// further pages.
func TestTxChunkPoolRegionAccounting(t *testing.T) {
	r := NewRegion(1)
	p := NewTxChunkPool(r, 0)
	var got []*TxChunk
	for i := 0; i < txChunksPerPage; i++ {
		k := p.Alloc()
		if k == nil {
			t.Fatalf("alloc %d failed with a page available", i)
		}
		got = append(got, k)
	}
	if r.Used() != 1 {
		t.Fatalf("used pages = %d, want 1", r.Used())
	}
	if p.Alloc() != nil {
		t.Fatal("allocation succeeded beyond the region grant")
	}
	if p.Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", p.Exhausted)
	}
	for _, k := range got {
		k.Release()
	}
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d after releasing all", p.InUse())
	}
	// Recycling serves from the free list: no more pages taken.
	for i := 0; i < 2*txChunksPerPage; i++ {
		k := p.Alloc()
		if k == nil {
			t.Fatalf("recycled alloc %d failed", i)
		}
		k.Release()
	}
	if r.Used() != 1 {
		t.Fatalf("used pages = %d after recycling, want 1", r.Used())
	}
}

// TestTxArenaFIFOReclaim: the release cursor frees chunks in append
// order, and a fully drained arena holds no chunks.
func TestTxArenaFIFOReclaim(t *testing.T) {
	p := NewTxChunkPool(NewRegion(4), 0)
	var a TxArena
	a.Init(p)

	// Fill two chunks and a bit of a third.
	msg := bytes.Repeat([]byte{0xab}, TxChunkSize/2)
	total := 0
	for i := 0; i < 5; i++ {
		b := msg
		for len(b) > 0 {
			v := a.Append(b)
			if len(v) == 0 {
				t.Fatal("append failed")
			}
			b = b[len(v):]
			total += len(v)
		}
	}
	if a.Live() != total {
		t.Fatalf("Live = %d, want %d", a.Live(), total)
	}
	if a.Chunks() != 3 {
		t.Fatalf("chunks = %d, want 3", a.Chunks())
	}
	// Releasing one chunk's worth frees exactly the first chunk.
	a.Release(TxChunkSize)
	if p.InUse() != 2 {
		t.Fatalf("InUse = %d after first chunk released, want 2", p.InUse())
	}
	// Release the rest: everything returns, cursors reset.
	a.Release(total - TxChunkSize)
	if p.InUse() != 0 || a.Chunks() != 0 || a.Live() != 0 {
		t.Fatalf("drained arena: InUse=%d chunks=%d live=%d", p.InUse(), a.Chunks(), a.Live())
	}
}

// TestTxArenaViewsImmutableUntilRelease: views returned by Append keep
// their bytes until the release cursor passes them, even as later
// appends land in the same chunk.
func TestTxArenaViewsImmutableUntilRelease(t *testing.T) {
	p := NewTxChunkPool(NewRegion(4), 0)
	var a TxArena
	a.Init(p)
	v1 := a.Append([]byte("first-message"))
	v2 := a.Append([]byte("second-message"))
	if string(v1) != "first-message" || string(v2) != "second-message" {
		t.Fatalf("views corrupted: %q %q", v1, v2)
	}
	// Releasing only v1 must leave v2 intact (same chunk still live).
	a.Release(len(v1))
	if string(v2) != "second-message" {
		t.Fatalf("v2 corrupted after partial release: %q", v2)
	}
	if p.InUse() != 1 {
		t.Fatalf("chunk freed while v2 live: InUse=%d", p.InUse())
	}
	a.Release(len(v2))
	if p.InUse() != 0 {
		t.Fatalf("chunk not freed after full release: InUse=%d", p.InUse())
	}
}

// TestTxArenaReleaseAll drops every chunk regardless of cursor state.
func TestTxArenaReleaseAll(t *testing.T) {
	p := NewTxChunkPool(NewRegion(4), 0)
	var a TxArena
	a.Init(p)
	big := make([]byte, 3*TxChunkSize)
	for b := big; len(b) > 0; {
		v := a.Append(b)
		b = b[len(v):]
	}
	a.Release(10) // partial
	a.ReleaseAll()
	if p.InUse() != 0 || a.Live() != 0 || a.Chunks() != 0 {
		t.Fatalf("ReleaseAll left InUse=%d live=%d chunks=%d", p.InUse(), a.Live(), a.Chunks())
	}
}

// TestZeroAllocTxArenaCycle: the steady-state append/release cycle — one
// message in, ACK releases it — must not allocate once warm.
func TestZeroAllocTxArenaCycle(t *testing.T) {
	p := NewTxChunkPool(NewRegion(4), 0)
	var a TxArena
	a.Init(p)
	msg := make([]byte, 64)
	// Warm the pool and the arena's chunk slice.
	v := a.Append(msg)
	a.Release(len(v))
	allocs := testing.AllocsPerRun(1000, func() {
		w := a.Append(msg)
		a.Release(len(w))
	})
	if allocs != 0 {
		t.Fatalf("arena append/release allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkTxArenaAppendRelease(b *testing.B) {
	p := NewTxChunkPool(NewRegion(4), 0)
	var a TxArena
	a.Init(p)
	msg := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := a.Append(msg)
		a.Release(len(v))
	}
}

// TestPinnedChunkOutlivesRelease: a frame carrying arena bytes by
// reference can outlive the ACK that releases them — a retransmitted
// original still queued in a receive ring. Until the frame lets go, the
// released chunk must not be written again, yet the pool must count as a
// pool no frame pinned: one page still serves exactly one page of chunks.
func TestPinnedChunkOutlivesRelease(t *testing.T) {
	r := NewRegion(1)
	p := NewTxChunkPool(r, 0)
	var a TxArena
	a.Init(p)
	old := bytes.Repeat([]byte{'o'}, TxChunkSize)
	v := a.Append(old)
	k := a.Newest(1)[0]
	f := fabric.NewFramePool().Get(64)
	f.Carry(v[:1448], k)
	a.Release(len(v)) // the ACK: released while the frame is in flight
	if p.InUse() != 0 || !p.Ready() {
		t.Fatalf("released chunk: InUse %d, Ready %v; want 0, true", p.InUse(), p.Ready())
	}
	var got []*TxChunk
	for i := 0; i < txChunksPerPage; i++ {
		n := p.Alloc()
		if n == nil {
			t.Fatalf("alloc %d of %d failed: the pinned chunk's slot is not free", i, txChunksPerPage)
		}
		if n == k {
			t.Fatal("a chunk a frame still pins was handed out again")
		}
		n.Append(bytes.Repeat([]byte{'n'}, TxChunkSize))
		got = append(got, n)
	}
	if p.Alloc() != nil || r.Used() != 1 {
		t.Fatalf("allocation beyond the grant: region used %d pages", r.Used())
	}
	if !bytes.Equal(f.Payload, old[:1448]) {
		t.Fatal("the frame's payload changed after its chunk was released")
	}
	f.Release() // its slot was taken: the chunk is dropped, not pooled
	for _, n := range got {
		n.Release()
	}
	if p.InUse() != 0 || len(p.free) != txChunksPerPage || p.retired != 0 {
		t.Fatalf("drained pool: InUse %d, %d free, %d retired; want 0, %d, 0", p.InUse(), len(p.free), p.retired, txChunksPerPage)
	}

	// A frame released before the slot is needed hands the chunk itself
	// back to the free list.
	v = a.Append(old)
	k = a.Newest(1)[0]
	f = fabric.NewFramePool().Get(64)
	f.Carry(v, k)
	a.Release(len(v))
	f.Release()
	if p.Alloc() != k {
		t.Fatal("an unpinned retired chunk did not return to the free list")
	}
}

// TestTxChunkBufferFollowsWrites: a chunk's host buffer holds the bytes
// written, not the modelled TxChunkSize. It starts small and doubles as
// appends need it; a growth writes nothing into the buffer it leaves, so
// views handed out before it keep their bytes; and the model — room,
// pool counts, the arena's footprint — sees a 16 KiB chunk throughout.
func TestTxChunkBufferFollowsWrites(t *testing.T) {
	r := NewRegion(1)
	p := NewTxChunkPool(r, 0)
	var a TxArena
	a.Init(p)
	// A held chunk is charged TxChunkSize plus its 16 B header, as
	// before the host buffer could be smaller than the chunk.
	modelled := func() int64 { return int64(a.Chunks())*(TxChunkSize+16) + int64(cap(a.chunks))*8 }

	first := a.Append(bytes.Repeat([]byte{1}, 64))
	k := a.Newest(1)[0]
	if c := cap(k.buf); c != 256 {
		t.Fatalf("a 64 B append backs the chunk with %d B, want 256", c)
	}
	if got, want := a.FootprintBytes(), modelled(); got != want {
		t.Fatalf("FootprintBytes = %d, want %d (the modelled chunk, not its %d B buffer)", got, want, cap(k.buf))
	}
	room, spare, used := k.Room(), p.spare, r.Used()

	var views [][]byte
	var want [][]byte
	views, want = append(views, first), append(want, bytes.Clone(first))
	old := k.buf
	snapshot := bytes.Clone(old)
	for i, n := range []int{300, 1000, 3000, 10000} {
		v := a.Append(bytes.Repeat([]byte{byte(i + 2)}, n))
		if len(v) != n || a.Chunks() != 1 {
			t.Fatalf("append %d: %d of %d bytes over %d chunks, want all in one", i, len(v), n, a.Chunks())
		}
		if !bytes.Equal(old, snapshot) {
			t.Fatalf("append %d wrote into a buffer the chunk had grown out of", i)
		}
		old, snapshot = k.buf, bytes.Clone(k.buf)
		views, want = append(views, v), append(want, bytes.Clone(v))
		room -= n
		if k.Room() != room || p.spare != spare || r.Used() != used || p.InUse() != 1 {
			t.Fatalf("append %d: room %d, spare %d, pages %d, in use %d; want %d, %d, %d, 1",
				i, k.Room(), p.spare, r.Used(), p.InUse(), room, spare, used)
		}
		if got, w := a.FootprintBytes(), modelled(); got != w {
			t.Fatalf("append %d: FootprintBytes = %d, want %d", i, got, w)
		}
	}
	if c := cap(k.buf); c != 16<<10 {
		t.Fatalf("14 364 B written into a %d B buffer, want 16 KiB", c)
	}
	for i := range views {
		if !bytes.Equal(views[i], want[i]) {
			t.Fatalf("view %d changed after the chunk grew", i)
		}
	}
	// A pooled chunk keeps its largest buffer.
	a.Release(a.Live())
	if n := p.Alloc(); n != k || cap(n.buf) != 16<<10 {
		t.Fatal("a recycled chunk did not keep its grown buffer")
	}
}
