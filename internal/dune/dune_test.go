package dune

import (
	"testing"
	"unsafe"
)

// flow stands in for the dataplane's flow type.
type flow struct{ name string }

func TestHandleLifecycle(t *testing.T) {
	g := NewGate[flow](3, 0)
	obj := &flow{"flow"}
	h := g.Grant(obj, 0)
	got, err := g.Lookup(h)
	if err != nil || got != obj {
		t.Fatalf("lookup: %v, %v", got, err)
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
	g := NewGate[flow](0, 0)
	h1 := g.Grant(&flow{"first"}, 0)
	g.Revoke(h1)
	second := &flow{"second"}
	h2 := g.Grant(second, 0) // reuses the slot with a new generation
	if h1 == h2 {
		t.Fatal("generations not distinguishing reused slots")
	}
	if _, err := g.Lookup(h1); err == nil {
		t.Fatal("stale handle accepted")
	}
	if got, err := g.Lookup(h2); err != nil || got != second {
		t.Fatalf("fresh handle rejected: %v %v", got, err)
	}
	if g.Violations(VioStaleHandle) == 0 && g.Violations(VioBadHandle) == 0 {
		t.Fatal("stale use not counted")
	}
}

func TestForeignHandleRejected(t *testing.T) {
	g0 := NewGate[flow](0, 0)
	g1 := NewGate[flow](1, 0)
	h := g0.Grant(&flow{"thread0 flow"}, 0)
	if _, err := g1.Lookup(h); err != ErrForeignHandle {
		t.Fatalf("foreign handle error = %v", err)
	}
	if g1.Violations(VioForeignHandle) != 1 {
		t.Fatal("violation not counted")
	}
}

func TestForgedHandleRejected(t *testing.T) {
	g := NewGate[flow](0, 0)
	if _, err := g.Lookup(0xdead); err == nil {
		t.Fatal("forged handle accepted")
	}
}

func TestRecvDoneAccounting(t *testing.T) {
	g := NewGate[flow](0, 0)
	h := g.Grant(&flow{"flow"}, 0)
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
	g := NewGate[flow](0, 0)
	if err := g.CheckWritable(true); err != ErrReadOnly {
		t.Fatalf("got %v", err)
	}
	if err := g.CheckWritable(false); err != nil {
		t.Fatalf("writable buffer rejected: %v", err)
	}
}

// TestCookieRoundTrip: the cookie given at grant (connect) comes back
// unchanged, alongside the granted object.
func TestCookieRoundTrip(t *testing.T) {
	g := NewGate[flow](2, 0)
	obj := &flow{"client"}
	const cookie uint64 = 0xfeedface_00c0ffee
	h := g.Grant(obj, cookie)
	if got := g.Cookie(h); got != cookie {
		t.Fatalf("cookie = %#x, want %#x", got, cookie)
	}
	if got, err := g.Lookup(h); err != nil || got != obj {
		t.Fatalf("lookup: %v, %v", got, err)
	}
	if g.TotalViolations() != 0 {
		t.Fatalf("violations = %d", g.TotalViolations())
	}
}

// TestSetCookieAtAccept: a flow granted at establishment carries no
// cookie until the accept system call tags it; a refused SetCookie
// counts its violation like any other handle check.
func TestSetCookieAtAccept(t *testing.T) {
	g := NewGate[flow](1, 0)
	h := g.Grant(&flow{"server"}, 0)
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
	g := NewGate[flow](0, 0)
	h := g.Grant(&flow{"a"}, 99)
	g.Revoke(h)
	if got := g.Cookie(h); got != 0 {
		t.Fatalf("revoked handle's cookie = %d", got)
	}
	h2 := g.Grant(&flow{"b"}, 0) // recycles the slot
	if handleIndex(h2) != handleIndex(h) {
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
	g0 := NewGate[flow](0, 0)
	g1 := NewGate[flow](1, 0)
	stale := g0.Grant(&flow{"old"}, 5)
	g0.Revoke(stale)
	fresh := g0.Grant(&flow{"new"}, 6)
	foreign := g1.Grant(&flow{"other"}, 7)
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
	g := NewGate[flow](0, 64)
	obj := &flow{"f"}
	// Warm the free-index stack to its steady capacity.
	g.Revoke(g.Grant(obj, 1))
	allocs := testing.AllocsPerRun(1000, func() {
		h := g.Grant(obj, 1)
		if got, err := g.Lookup(h); err != nil || got != obj {
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

// TestCapEntrySize pins the capability entry: one exists per live flow,
// so with the user's cookie in it the entry must still fit 24 bytes
// (DESIGN.md, "Per-connection memory budget").
func TestCapEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(capEntry[flow]{}); got > 24 {
		t.Fatalf("capEntry is %d bytes, budget 24", got)
	}
}
