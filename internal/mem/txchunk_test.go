package mem

import (
	"bytes"
	"slices"
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
	if r.usedPages != 1 {
		t.Fatalf("used pages = %d, want 1", r.usedPages)
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
	if r.usedPages != 1 {
		t.Fatalf("used pages = %d after recycling, want 1", r.usedPages)
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
	k := a.tail
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
	if p.Alloc() != nil || r.usedPages != 1 {
		t.Fatalf("allocation beyond the grant: region used %d pages", r.usedPages)
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
	k = a.tail
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
	// A held chunk is charged TxChunkSize plus its 24 B header (cursors,
	// pins, pool and ring link), however small its host buffer.
	modelled := func() int64 { return int64(a.Chunks()) * (TxChunkSize + 24) }

	first := a.Append(bytes.Repeat([]byte{1}, 64))
	k := a.tail
	if c := cap(k.buf); c != 256 {
		t.Fatalf("a 64 B append backs the chunk with %d B, want 256", c)
	}
	if got, want := a.FootprintBytes(), modelled(); got != want {
		t.Fatalf("FootprintBytes = %d, want %d (the modelled chunk, not its %d B buffer)", got, want, cap(k.buf))
	}
	room, spare, used := k.Room(), p.spare, r.usedPages

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
		if k.Room() != room || p.spare != spare || r.usedPages != used || p.InUse() != 1 {
			t.Fatalf("append %d: room %d, spare %d, pages %d, in use %d; want %d, %d, %d, 1",
				i, k.Room(), p.spare, r.usedPages, p.InUse(), room, spare, used)
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

// FuzzTxArena drives an arena through random Append, Pending, Took,
// Release and ReleaseAll calls against a byte-stream reference: every
// byte appended, a taken and a released cursor into them, and the
// chunks the arena must hold — a chunk fills to TxChunkSize, a new one
// opens when the last is full or gone, and one returns to the pool the
// moment the release cursor passes its last byte. After each call the
// pending views are the untaken bytes in order, one view per chunk in
// the chunk's current buffer, and Live, Untaken, the chunks held and the
// pool's InUse all match the reference.
func FuzzTxArena(f *testing.F) {
	f.Add([]byte{0, 0, 64, 1, 2, 0, 64, 1, 3, 0, 64, 0, 0, 64, 1})
	f.Add([]byte{0, 255, 255, 1, 2, 0, 200, 1, 3, 0, 100, 1, 0, 1, 0, 1, 4, 1})
	f.Add([]byte{0, 127, 255, 2, 127, 255, 3, 64, 0, 1, 0, 0, 10, 3, 255, 255, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := NewTxChunkPool(NewRegion(1), 0)
		var a TxArena
		a.Init(p)
		type span struct {
			k   *TxChunk
			end int // stream offset past the chunk's last byte
		}
		var (
			stream     []byte // every byte appended
			taken, rel int    // cursors into stream
			held       []span // the chunks the arena must hold, oldest first
		)
		for len(ops) > 0 {
			op, arg := ops[0]%5, 0
			if ops = ops[1:]; len(ops) >= 2 {
				arg, ops = int(ops[0])<<8|int(ops[1]), ops[2:]
			}
			switch op {
			case 0: // Append
				b := make([]byte, 1+arg%(2*TxChunkSize))
				for i := range b {
					pos := len(stream) + i
					b[i] = byte(pos ^ pos>>8 ^ pos>>16)
				}
				open := len(held) == 0 || held[len(held)-1].k.Room() == 0
				want := 0
				if !open {
					want = min(len(b), held[len(held)-1].k.Room())
				} else if len(held) < txChunksPerPage {
					want = min(len(b), TxChunkSize)
				}
				v := a.Append(b)
				if len(v) != want || !bytes.Equal(v, b[:want]) {
					t.Fatalf("Append(%d B) returned %d B, want %d", len(b), len(v), want)
				}
				if open && want > 0 {
					held = append(held, span{k: a.tail})
				}
				stream = append(stream, v...)
				if want > 0 {
					held[len(held)-1].end = len(stream)
				}
			case 1: // Pending
				sg, backs := a.Pending(nil, nil)
				if len(sg) != len(backs) {
					t.Fatalf("Pending: %d views, %d backings", len(sg), len(backs))
				}
				var first int // the oldest chunk holding untaken bytes
				for first < len(held) && held[first].end <= taken {
					first++
				}
				if len(sg) != len(held)-first {
					t.Fatalf("Pending: %d views over %d chunks with untaken bytes", len(sg), len(held)-first)
				}
				var got []byte
				for i, v := range sg {
					k := held[first+i].k
					if backs[i] != k {
						t.Fatalf("Pending: view %d is backed by another chunk than the one holding it", i)
					}
					if len(v) == 0 || &v[len(v)-1] != &k.buf[k.used-1] {
						t.Fatalf("Pending: view %d does not end at its chunk's write cursor in the current buffer", i)
					}
					got = append(got, v...)
				}
				if !bytes.Equal(got, stream[taken:]) {
					t.Fatalf("Pending: %d B of views, want the %d untaken bytes in order", len(got), len(stream)-taken)
				}
			case 2: // Took
				n := arg % (len(stream) - taken + 1)
				a.Took(n)
				taken += n
			case 3: // Release
				n := arg % (taken - rel + 1)
				a.Release(n)
				rel += n
				for len(held) > 0 && held[0].end <= rel {
					held = held[1:]
				}
			case 4: // ReleaseAll
				a.ReleaseAll()
				taken, rel, held = len(stream), len(stream), nil
			}
			if a.Live() != len(stream)-rel || a.Untaken() != len(stream)-taken {
				t.Fatalf("Live %d, Untaken %d; want %d, %d", a.Live(), a.Untaken(), len(stream)-rel, len(stream)-taken)
			}
			if p.InUse() != len(held) || a.Chunks() != len(held) {
				t.Fatalf("pool InUse %d, arena holds %d chunks; want %d", p.InUse(), a.Chunks(), len(held))
			}
			for i, k := 0, a.tail; i < len(held); i++ {
				if k = k.next; k != held[i].k {
					t.Fatalf("chunk %d of %d held is not the one the reference holds there", i, len(held))
				}
			}
		}
	})
}

// TestTrimDropsIdleBuffers: a burst leaves full chunks on the free list.
// Once a trim interval passes with the steady state cycling only the
// newest of them, the ones it never reached give their host buffers
// back and the one it kept using keeps its own; the model's chunks all
// stay pooled, and the cycle allocates nothing.
func TestTrimDropsIdleBuffers(t *testing.T) {
	p := NewTxChunkPool(NewRegion(1), 0)
	var a TxArena
	a.Init(p)
	burst := make([]byte, 3*TxChunkSize)
	a.Release(a.Write(burst))
	if len(p.free) != 3 {
		t.Fatalf("a 3-chunk burst left %d chunks free", len(p.free))
	}
	idle, hot := slices.Clone(p.free[:2]), p.free[2]
	msg := make([]byte, 64)
	cycle := func() { a.Release(len(a.Append(msg))) }
	allocs := testing.AllocsPerRun(2*txTrimEvery, cycle)
	if allocs != 0 {
		t.Fatalf("the steady cycle allocates %.2f per op, want 0", allocs)
	}
	for i, k := range idle {
		if k.buf != nil {
			t.Fatalf("idle chunk %d kept its %d B buffer across a trim interval", i, cap(k.buf))
		}
	}
	if cap(hot.buf) != TxChunkSize || len(p.free) != 3 || p.InUse() != 0 {
		t.Fatalf("hot chunk holds %d B, %d chunks free, %d in use; want %d, 3, 0", cap(hot.buf), len(p.free), p.InUse(), TxChunkSize)
	}
}
