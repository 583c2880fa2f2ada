package dune

import "testing"

func TestHandleLifecycle(t *testing.T) {
	g := NewGate(3, 0)
	obj := "flow"
	h := g.Grant(obj)
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
	g := NewGate(0, 0)
	h1 := g.Grant("first")
	g.Revoke(h1)
	h2 := g.Grant("second") // reuses the slot with a new generation
	if h1 == h2 {
		t.Fatal("generations not distinguishing reused slots")
	}
	if _, err := g.Lookup(h1); err == nil {
		t.Fatal("stale handle accepted")
	}
	if got, err := g.Lookup(h2); err != nil || got != "second" {
		t.Fatalf("fresh handle rejected: %v %v", got, err)
	}
	if g.Violations(VioStaleHandle) == 0 && g.Violations(VioBadHandle) == 0 {
		t.Fatal("stale use not counted")
	}
}

func TestForeignHandleRejected(t *testing.T) {
	g0 := NewGate(0, 0)
	g1 := NewGate(1, 0)
	h := g0.Grant("thread0 flow")
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
	h := g.Grant("flow")
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
