package dune

import (
	"testing"
	"unsafe"
)

// flowID builds a flow id the way the TCP arena names a connection: the
// slot in the low 24 bits, its generation above.
func flowID(gen uint8, slot uint32) uint32 { return uint32(gen)<<24 | slot }

func TestHandleLifecycle(t *testing.T) {
	g := NewGate(3, 0)
	id := flowID(1, 5)
	h := g.Grant(id, 0)
	got, err := g.Lookup(h)
	if err != nil || got != id {
		t.Fatalf("lookup: %#x, %v", got, err)
	}
	if g.Handle(id) != h {
		t.Fatal("the handle rebuilt from the flow id differs from the granted one")
	}
	g.Revoke(h)
	if _, err := g.Lookup(h); err == nil {
		t.Fatal("revoked handle still valid")
	}
	if g.Live() != 0 {
		t.Fatalf("live = %d", g.Live())
	}
}

func TestStaleGeneration(t *testing.T) {
	g := NewGate(0, 0)
	h1 := g.Grant(flowID(1, 0), 0)
	g.Revoke(h1)
	second := flowID(2, 0)
	h2 := g.Grant(second, 0) // reuses the slot with a new generation
	if h1 == h2 {
		t.Fatal("generations not distinguishing reused slots")
	}
	if _, err := g.Lookup(h1); err != ErrStaleHandle {
		t.Fatalf("stale handle: %v, want ErrStaleHandle", err)
	}
	if got, err := g.Lookup(h2); err != nil || got != second {
		t.Fatalf("fresh handle rejected: %#x %v", got, err)
	}
	if g.Violations(VioStaleHandle) != 1 {
		t.Fatal("stale use not counted")
	}
}

func TestForeignHandleRejected(t *testing.T) {
	g0 := NewGate(0, 0)
	g1 := NewGate(1, 0)
	h := g0.Grant(flowID(1, 0), 0)
	if _, err := g1.Lookup(h); err != ErrForeignHandle {
		t.Fatalf("foreign handle error = %v", err)
	}
	if g1.Violations(VioForeignHandle) != 1 {
		t.Fatal("violation not counted")
	}
}

func TestForgedHandleRejected(t *testing.T) {
	g := NewGate(0, 0)
	if _, err := g.Lookup(0xdead); err == nil {
		t.Fatal("forged handle accepted")
	}
}

func TestRecvDoneAccounting(t *testing.T) {
	g := NewGate(0, 0)
	h := g.Grant(flowID(1, 0), 0)
	g.Delivered(h, 100)
	if err := g.RecvDone(h, 60); err != nil {
		t.Fatal(err)
	}
	if err := g.RecvDone(h, 60); err != ErrRecvDone {
		t.Fatalf("overrun error = %v", err)
	}
	if g.Violations(VioRecvDoneOverrun) != 1 {
		t.Fatal("overrun not counted")
	}
	if err := g.RecvDone(h, 40); err != nil {
		t.Fatalf("remaining bytes rejected: %v", err)
	}
}

func TestReadOnlyEnforcement(t *testing.T) {
	g := NewGate(0, 0)
	if err := g.CheckWritable(true); err != ErrReadOnly {
		t.Fatalf("got %v", err)
	}
	if err := g.CheckWritable(false); err != nil {
		t.Fatalf("writable buffer rejected: %v", err)
	}
}

// TestCookieRoundTrip: the cookie given at grant (connect) comes back
// unchanged, alongside the granted flow.
func TestCookieRoundTrip(t *testing.T) {
	g := NewGate(2, 0)
	id := flowID(1, 3)
	const cookie uint64 = 0xfeedface_00c0ffee
	h := g.Grant(id, cookie)
	if got := g.Cookie(h); got != cookie {
		t.Fatalf("cookie = %#x, want %#x", got, cookie)
	}
	if got, err := g.Lookup(h); err != nil || got != id {
		t.Fatalf("lookup: %#x, %v", got, err)
	}
	if g.TotalViolations() != 0 {
		t.Fatalf("violations = %d", g.TotalViolations())
	}
}

// TestSetCookieAtAccept: a flow granted at establishment carries no
// cookie until the accept system call tags it; a refused SetCookie
// counts its violation like any other handle check.
func TestSetCookieAtAccept(t *testing.T) {
	g := NewGate(1, 0)
	h := g.Grant(flowID(1, 0), 0)
	if got := g.Cookie(h); got != 0 {
		t.Fatalf("cookie before accept = %#x", got)
	}
	if err := g.SetCookie(h, 42); err != nil {
		t.Fatal(err)
	}
	if got := g.Cookie(h); got != 42 {
		t.Fatalf("cookie after accept = %d, want 42", got)
	}
	if err := g.SetCookie(0xdead, 7); err != ErrForeignHandle {
		t.Fatalf("forged SetCookie error = %v", err)
	}
	if g.Violations(VioForeignHandle) != 1 {
		t.Fatal("forged SetCookie not counted")
	}
}

// TestRevokeClearsCookie: a revoked handle's cookie is gone, and the
// slot's next grant starts from its own cookie, not the old one.
func TestRevokeClearsCookie(t *testing.T) {
	g := NewGate(0, 0)
	h := g.Grant(flowID(1, 4), 99)
	g.Revoke(h)
	if got := g.Cookie(h); got != 0 {
		t.Fatalf("revoked handle's cookie = %d", got)
	}
	h2 := g.Grant(flowID(2, 4), 0) // the flow's next occupant of the slot
	if slotOf(uint32(h2)) != slotOf(uint32(h)) {
		t.Fatal("slot not recycled")
	}
	if got := g.Cookie(h2); got != 0 {
		t.Fatalf("recycled slot inherited cookie %d", got)
	}
}

// TestCookieOfStaleOrForeignHandle: Cookie answers 0 for any handle not
// live in this namespace and, being the kernel's own read, counts no
// violation.
func TestCookieOfStaleOrForeignHandle(t *testing.T) {
	g0 := NewGate(0, 0)
	g1 := NewGate(1, 0)
	stale := g0.Grant(flowID(1, 0), 5)
	g0.Revoke(stale)
	fresh := g0.Grant(flowID(2, 0), 6)
	foreign := g1.Grant(flowID(1, 0), 7)
	for _, tc := range []struct {
		name string
		h    uint64
	}{{"stale", stale}, {"foreign", foreign}, {"forged", 0xdead}} {
		if got := g0.Cookie(tc.h); got != 0 {
			t.Errorf("%s handle's cookie = %d, want 0", tc.name, got)
		}
	}
	if got := g0.Cookie(fresh); got != 6 {
		t.Fatalf("fresh handle's cookie = %d, want 6", got)
	}
	if v := g0.TotalViolations(); v != 0 {
		t.Fatalf("Cookie counted %d violations", v)
	}
}

// TestZeroAllocGate: a Grant/Lookup/Cookie/Revoke cycle on a presized
// table allocates nothing — the gate sits on every connect, accept,
// event condition and system call.
func TestZeroAllocGate(t *testing.T) {
	g := NewGate(0, 64)
	id := flowID(1, 7)
	allocs := testing.AllocsPerRun(1000, func() {
		h := g.Grant(id, 1)
		if got, err := g.Lookup(h); err != nil || got != id {
			t.Fatal("lookup failed")
		}
		if g.Cookie(h) != 1 {
			t.Fatal("cookie lost")
		}
		g.Revoke(h)
	})
	if allocs != 0 {
		t.Fatalf("Grant/Lookup/Cookie/Revoke allocates %.1f times per cycle", allocs)
	}
}

// TestCapEntrySize pins the capability entry: one exists per flow slot,
// so with the user's cookie in it the entry must fit 16 bytes (DESIGN.md,
// "Per-connection memory budget").
func TestCapEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(capEntry{}); got > 16 {
		t.Fatalf("capEntry is %d bytes, budget 16", got)
	}
}
