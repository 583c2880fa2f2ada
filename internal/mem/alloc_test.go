package mem

import (
	"testing"

	"ix/internal/fabric"
)

// Steady-state mbuf churn (a frame off the wire → adopt → free, the
// per-packet pattern of every RX loop) must not allocate once the pools
// are provisioned.

func TestZeroAllocMbufAllocFree(t *testing.T) {
	pool := NewMbufPool(NewRegion(8), 0)
	frames := fabric.NewFramePool()
	// Provision: a burst deep enough to cover the benchmark's working set.
	var warm []*Mbuf
	for i := 0; i < 64; i++ {
		m := pool.Alloc()
		m.Adopt(frames.Get(64))
		warm = append(warm, m)
	}
	for _, m := range warm {
		m.Unref()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m := pool.Alloc()
		m.Adopt(frames.Get(64))
		m.Unref()
	})
	if allocs != 0 {
		t.Fatalf("mbuf alloc/adopt/free allocates %.1f per op, want 0", allocs)
	}
	if frames.InUse() != 0 {
		t.Fatalf("%d frames still in use after every mbuf was freed", frames.InUse())
	}
}

func BenchmarkMbufAllocFree(b *testing.B) {
	pool := NewMbufPool(NewRegion(8), 0)
	frames := fabric.NewFramePool()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := pool.Alloc()
		m.Adopt(frames.Get(64))
		m.Unref()
	}
}
