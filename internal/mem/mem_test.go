package mem

import (
	"testing"
	"testing/quick"
)

func TestRegionAccounting(t *testing.T) {
	r := NewRegion(2)
	if !r.TakePage() || !r.TakePage() {
		t.Fatal("pages not granted")
	}
	if r.TakePage() {
		t.Fatal("page granted beyond capacity")
	}
	if r.Used() != 2 || r.Cap() != 2 {
		t.Fatalf("used=%d cap=%d", r.Used(), r.Cap())
	}
	r.Grow(1)
	if !r.TakePage() {
		t.Fatal("grown page not granted")
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

func TestMbufHeadroom(t *testing.T) {
	p := NewMbufPool(NewRegion(1), 0)
	m := p.Alloc()
	m.SetData([]byte("payload"))
	hdr := m.Prepend(4)
	copy(hdr, "HDRX")
	if string(m.Bytes()) != "HDRXpayload" {
		t.Fatalf("after prepend: %q", m.Bytes())
	}
	m.Trim(4)
	if string(m.Bytes()) != "HDRX" {
		t.Fatalf("after trim: %q", m.Bytes())
	}
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
