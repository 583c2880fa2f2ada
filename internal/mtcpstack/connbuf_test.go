package mtcpstack

import (
	"testing"
	"unsafe"
)

// TestConnStateSizes pins the user-level connection's size: one exists
// per established connection, so growth is a reviewed decision
// (DESIGN.md, "Per-connection memory budget").
func TestConnStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(mconn{}); got > 64 {
		t.Fatalf("mtcpstack.mconn is %d bytes, budget 64", got)
	}
}

// TestZeroAllocConnBufPool: once warm, borrowing and returning the
// staging buffers allocates nothing, and the pool holds one object per
// connection concurrently in flight, whoever borrows it.
func TestZeroAllocConnBufPool(t *testing.T) {
	m := &mcore{}
	a, b := &mconn{m: m}, &mconn{m: m}
	msg := make([]byte, 64)
	cycle := func(c *mconn) {
		cb := c.getBuf()
		cb.rcvbuf = append(cb.rcvbuf, msg...)
		cb.rcvbuf = cb.rcvbuf[:0] // as dispatch does once OnRecv returns
		c.putBuf()
	}
	cycle(a)
	if a.buf != nil || len(m.bufFree) != 1 {
		t.Fatalf("drained connection kept its buffers (pool holds %d)", len(m.bufFree))
	}
	if allocs := testing.AllocsPerRun(100, func() { cycle(b); cycle(a) }); allocs != 0 {
		t.Fatalf("warm borrow cycle allocates %.1f, want 0", allocs)
	}
	if len(m.bufFree) != 1 {
		t.Fatalf("pool grew to %d objects for one connection in flight at a time", len(m.bufFree))
	}
	cb := a.getBuf()
	cb.sndbuf = append(cb.sndbuf, msg...)
	a.putBuf()
	if a.buf != cb {
		t.Fatal("buffers returned to the pool with bytes still unsent")
	}
}
