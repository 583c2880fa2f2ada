package linuxstack

import (
	"testing"
	"unsafe"
)

// TestConnStateSizes pins the socket adapter's size: one exists per
// established connection, so growth is a reviewed decision (DESIGN.md,
// "Per-connection memory budget").
func TestConnStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(sock{}); got > 64 {
		t.Fatalf("linuxstack.sock is %d bytes, budget 64", got)
	}
}

// TestZeroAllocSockBufPool: once warm, a request-response socket's
// receive staging cycles borrow → fill → read → return without
// allocating — the small backing stays with the pooled object — while
// a bulk-sized backing is released rather than retained.
func TestZeroAllocSockBufPool(t *testing.T) {
	h := &Host{}
	k := &kcore{h: h}
	a, b := &sock{k: k}, &sock{k: k}
	msg := make([]byte, 64)
	cycle := func(s *sock, data []byte) {
		sb := s.getBuf()
		sb.rcvbuf = append(sb.rcvbuf, data...)
		sb.rcvOff = int32(len(sb.rcvbuf))
		s.rcvDrained()
	}
	cycle(a, msg)
	if a.buf != nil || len(h.bufFree) != 1 {
		t.Fatalf("drained socket kept its buffers (pool holds %d)", len(h.bufFree))
	}
	// The next borrower — another socket — inherits the warm backing.
	if allocs := testing.AllocsPerRun(100, func() { cycle(b, msg); cycle(a, msg) }); allocs != 0 {
		t.Fatalf("warm receive cycle allocates %.1f, want 0", allocs)
	}
	if len(h.bufFree) != 1 {
		t.Fatalf("pool grew to %d objects for one socket in flight at a time", len(h.bufFree))
	}
	cycle(a, make([]byte, rcvKeep+1))
	if got := cap(h.bufFree[0].rcvbuf); got != 0 {
		t.Fatalf("pooled object retains a %d-byte backing, want none above %d", got, rcvKeep)
	}
	// A socket with unsent bytes keeps its buffers across a read drain.
	sb := a.getBuf()
	sb.sndbuf = append(sb.sndbuf, msg...)
	cycle(a, msg)
	if a.buf != sb {
		t.Fatal("buffers returned to the pool with bytes still unsent")
	}
}
