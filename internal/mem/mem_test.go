package mem

import (
	"testing"
	"testing/quick"

	"ix/internal/fabric"
)

func TestRegionAccounting(t *testing.T) {
	r := NewRegion(2)
	if !r.TakePage() || !r.TakePage() {
		t.Fatal("pages not granted")
	}
	if r.TakePage() {
		t.Fatal("page granted beyond capacity")
	}
	if r.usedPages != 2 || r.limitPages != 2 {
		t.Fatalf("used=%d cap=%d", r.usedPages, r.limitPages)
	}
}

func TestMbufLifecycle(t *testing.T) {
	p := NewMbufPool(NewRegion(1), 3)
	m := p.Alloc()
	if m == nil {
		t.Fatal("alloc failed")
	}
	if m.Owner != 3 {
		t.Fatalf("owner = %d, want 3", m.Owner)
	}
	m.SetData([]byte("hello"))
	if string(m.Bytes()) != "hello" {
		t.Fatalf("data = %q", m.Bytes())
	}
	m.Ref()
	m.Unref()
	if p.InUse() != 1 {
		t.Fatalf("inuse = %d, want 1", p.InUse())
	}
	m.Unref()
	if p.InUse() != 0 {
		t.Fatalf("inuse = %d, want 0", p.InUse())
	}
}

// TestMbufAdoptHoldsFrame: an adopted frame is the mbuf's data, not a
// copy of it, and goes back to its sender's pool exactly when the last
// reference to the mbuf drops.
func TestMbufAdoptHoldsFrame(t *testing.T) {
	p := NewMbufPool(NewRegion(1), 0)
	frames := fabric.NewFramePool()
	f := frames.Get(5)
	copy(f.Data, "hello")
	m := p.Alloc()
	m.Adopt(f)
	if string(m.Bytes()) != "hello" || &m.Bytes()[0] != &f.Data[0] {
		t.Fatalf("data = %q, want the frame's own bytes", m.Bytes())
	}
	m.Ref() // a second holder, like a reassembly queue
	m.Unref()
	if frames.InUse() != 1 {
		t.Fatalf("frame released while the mbuf is still referenced (in use %d)", frames.InUse())
	}
	m.Unref()
	if frames.InUse() != 0 || p.InUse() != 0 {
		t.Fatalf("after the last Unref: frames in use %d, mbufs in use %d", frames.InUse(), p.InUse())
	}
	// The recycled mbuf no longer refers to the frame.
	m = p.Alloc()
	m.SetData([]byte("own"))
	if string(m.Bytes()) != "own" || string(f.Data[:5]) != "hello" {
		t.Fatalf("recycled mbuf wrote through to the released frame: %q / %q", m.Bytes(), f.Data[:5])
	}
}

func TestMbufDoubleFreePanics(t *testing.T) {
	p := NewMbufPool(NewRegion(1), 0)
	m := p.Alloc()
	m.Unref()
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	m.Unref()
}

func TestMbufPoolExhaustion(t *testing.T) {
	p := NewMbufPool(NewRegion(1), 0)
	var bufs []*Mbuf
	for {
		m := p.Alloc()
		if m == nil {
			break
		}
		bufs = append(bufs, m)
	}
	if p.Exhausted == 0 {
		t.Fatal("exhaustion not counted")
	}
	if len(bufs) != PageSize/MbufSize {
		t.Fatalf("provisioned %d mbufs from one page, want %d", len(bufs), PageSize/MbufSize)
	}
	// Free one: allocation works again.
	bufs[0].Unref()
	if p.Alloc() == nil {
		t.Fatal("alloc failed after free")
	}
}

// TestMbufUniqueness: allocated buffers are distinct objects until freed.
func TestMbufUniqueness(t *testing.T) {
	p := NewMbufPool(NewRegion(4), 0)
	f := func(n uint8) bool {
		count := int(n%32) + 1
		seen := map[*Mbuf]bool{}
		var all []*Mbuf
		for i := 0; i < count; i++ {
			m := p.Alloc()
			if m == nil || seen[m] {
				return false
			}
			seen[m] = true
			all = append(all, m)
		}
		for _, m := range all {
			m.Unref()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
