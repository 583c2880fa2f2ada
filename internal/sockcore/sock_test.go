package sockcore

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"ix/internal/app"
	"ix/internal/mem"
	"ix/internal/wire"
)

// readSizes are the two stacks' read sizes: a Linux read() takes at most
// one slab, an mtcp_read everything queued.
var readSizes = []struct {
	name string
	max  int
}{{"linux", SlabSize}, {"mtcp", math.MaxInt}}

// newOwner returns an owner over a fresh layer that charges nothing,
// runs operations inline and delivers to h.
func newOwner(readMax int, h app.Handler) (*Owner, *Layer) {
	l := &Layer{Tx: mem.NewTxChunkPool(mem.NewRegion(1), 0)}
	o := &Owner{
		Layer:   l,
		ReadMax: readMax,
		Charge:  func(time.Duration) {},
		Run:     (*Sock).Do,
		Ready:   func() {},
	}
	o.SetHandler(h)
	return o, l
}

// TestConnStateSizes pins the socket's size: one exists per established
// connection, so growth is a reviewed decision (DESIGN.md,
// "Per-connection memory budget"), and memprobe.bytes_per_conn — a
// sim_digest input — charges it. The borrowed buffers are charged per
// attached socket, so their size is pinned too: 56 B, the small receive
// buffer, the receive slab chain's pointer and the three-word send
// arena, which an idle socket does not pay.
func TestConnStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(Sock{}); got != 48 {
		t.Fatalf("sockcore.Sock is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(buf{}); got != 56 {
		t.Fatalf("sockcore.buf is %d bytes, want 56", got)
	}
}

// drain reads s empty the way dispatch does.
func drain(s *Sock) {
	for s.buf != nil {
		chunk, slabs := s.nextRead()
		if len(chunk) == 0 {
			return
		}
		s.readDone(slabs)
	}
}

// TestZeroAllocSockBufPool: once warm, a request-response socket's
// receive staging cycles borrow → fill → read → return without
// allocating — the small backing stays with the pooled object — and so
// does a bulk receive through the slab chain, at either read size; a
// small backing grown past rcvKeep is released rather than retained.
func TestZeroAllocSockBufPool(t *testing.T) {
	for _, rs := range readSizes {
		t.Run(rs.name, func(t *testing.T) {
			o, l := newOwner(rs.max, &chunkRecorder{})
			a, b := &Sock{o: o}, &Sock{o: o}
			msg := make([]byte, 64)
			cycle := func(s *Sock, data []byte) {
				for off := 0; off < len(data); off += wire.MSS {
					s.stageRcv(data[off:min(off+wire.MSS, len(data))])
				}
				drain(s)
			}
			cycle(a, msg)
			if a.buf != nil || len(l.bufFree) != 1 {
				t.Fatalf("drained socket kept its buffers (pool holds %d)", len(l.bufFree))
			}
			// The next borrower — another socket — inherits the warm backing.
			if allocs := testing.AllocsPerRun(100, func() { cycle(b, msg); cycle(a, msg) }); allocs != 0 {
				t.Fatalf("warm receive cycle allocates %.1f, want 0", allocs)
			}
			if len(l.bufFree) != 1 {
				t.Fatalf("pool grew to %d objects for one socket in flight at a time", len(l.bufFree))
			}
			bulk := make([]byte, 3*SlabSize/2)
			cycle(a, bulk)
			if allocs := testing.AllocsPerRun(100, func() { cycle(a, bulk) }); allocs != 0 {
				t.Fatalf("warm bulk receive cycle allocates %.1f, want 0", allocs)
			}
			if inUse, free := l.Slabs(); inUse != 0 || free != 2 {
				t.Fatalf("after bulk cycles: %d slabs in use, %d free; want 0 and 2", inUse, free)
			}
			// A small buffer appended past rcvKeep in one go (cap growth) is
			// not what a pooled object keeps.
			sb := a.getBuf()
			sb.rcvbuf = append(sb.rcvbuf, make([]byte, rcvKeep+1)...)
			a.readDone(0)
			if got := cap(l.bufFree[0].rcvbuf); got > rcvKeep {
				t.Fatalf("pooled object retains a %d-byte backing, want none above %d", got, rcvKeep)
			}
			// A socket with unsent bytes keeps its buffers across a read drain.
			sb = a.getBuf()
			sb.tx.Write(msg)
			cycle(a, msg)
			if a.buf != sb {
				t.Fatal("buffers returned to the pool with bytes still unsent")
			}
		})
	}
}

// chunkRecorder is a handler that records every OnRecv chunk.
type chunkRecorder struct{ chunks [][]byte }

func (r *chunkRecorder) OnAccept(app.Conn)           {}
func (r *chunkRecorder) OnConnected(app.Conn, bool)  {}
func (r *chunkRecorder) OnRecv(_ app.Conn, d []byte) { r.chunks = append(r.chunks, bytes.Clone(d)) }
func (r *chunkRecorder) OnSent(app.Conn, int)        {}
func (r *chunkRecorder) OnEOF(app.Conn)              {}
func (r *chunkRecorder) OnClosed(app.Conn)           {}

// contiguousStaging is the receive staging the slab chain replaced, kept
// as the reference: one buffer grown by append, read from a cursor at
// most max bytes at a time, released once read to the end.
type contiguousStaging struct {
	rcvbuf []byte
	rcvOff int
}

func (c *contiguousStaging) arrive(data []byte) { c.rcvbuf = append(c.rcvbuf, data...) }

func (c *contiguousStaging) readAll(max int) (chunks [][]byte) {
	for c.rcvOff < len(c.rcvbuf) {
		n := min(len(c.rcvbuf)-c.rcvOff, max)
		chunks = append(chunks, c.rcvbuf[c.rcvOff:c.rcvOff+n])
		c.rcvOff += n
	}
	c.rcvbuf, c.rcvOff = nil, 0
	return chunks
}

// TestStagingMatchesContiguousAppend drives the receive staging through
// the real dispatch loop with random arrival patterns — segments of 1 to
// MSS bytes, several dispatches' worth per read, totals from a few bytes
// to the full receive window — and checks every OnRecv chunk, length and
// bytes, against the staging the slabs replaced: one buffer grown by
// append and read a slab at a time (Linux), or whole (mTCP).
func TestStagingMatchesContiguousAppend(t *testing.T) {
	const rcvWnd = 256 << 10 // the engine's default receive window
	for _, rs := range readSizes {
		t.Run(rs.name, func(t *testing.T) {
			got := &chunkRecorder{}
			o, l := newOwner(rs.max, got)
			s := &Sock{o: o}
			rng := rand.New(rand.NewSource(25))
			var ref contiguousStaging
			var want [][]byte
			var stream byte
			for dispatch := 0; dispatch < 400; dispatch++ {
				total := 1 + rng.Intn(rcvWnd)
				if dispatch%3 == 0 {
					total = 1 + rng.Intn(3*rcvKeep) // around the two-size threshold
				}
				for n := 0; n < total; {
					seg := make([]byte, min(1+rng.Intn(wire.MSS), total-n))
					for i := range seg {
						seg[i] = stream
						stream = stream*31 + 7
					}
					s.stageRcv(seg)
					ref.arrive(seg)
					n += len(seg)
				}
				want = append(want, ref.readAll(rs.max)...)
				o.dispatch(s)
				if s.buf != nil {
					t.Fatalf("dispatch %d: socket keeps its staging after reading everything", dispatch)
				}
			}
			if len(got.chunks) != len(want) {
				t.Fatalf("%d chunks read, contiguous staging reads %d", len(got.chunks), len(want))
			}
			for i := range want {
				if !bytes.Equal(got.chunks[i], want[i]) {
					t.Fatalf("chunk %d: %d bytes, contiguous staging reads %d (or the bytes differ)", i, len(got.chunks[i]), len(want[i]))
				}
			}
			if inUse, _ := l.Slabs(); inUse != 0 {
				t.Fatalf("%d slabs still attached after every read", inUse)
			}
		})
	}
}
