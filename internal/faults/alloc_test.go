package faults

import (
	"testing"

	"ix/internal/fabric"
	"ix/internal/sim"
)

// TestZeroAllocFaultFreePath: an attached injector with no impairment
// configured adds zero heap allocations per frame — instrumenting every
// link of a cluster for later fault injection costs the fault-free
// figure benchmarks nothing.
func TestZeroAllocFaultFreePath(t *testing.T) {
	eng := sim.NewEngine(1)
	l := fabric.NewLink(eng, 10*fabric.Gbps, 0)
	rx := releaser{}
	l.Port(1).Attach(rx)
	in := Interpose(eng, l.Port(1), 99)
	pool := fabric.NewFramePool()

	// Warm the pool and the engine's event free list.
	for i := 0; i < 64; i++ {
		l.Port(0).Send(pool.Get(1000))
	}
	eng.Run()

	const frames = 100
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < frames; i++ {
			l.Port(0).Send(pool.Get(1000))
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("fault-free path allocates %.2f per %d frames, want 0", allocs, frames)
	}
	// Pass-through must not even touch the stats (that is the whole
	// point of the fast path).
	if got := in.stats.Delivered; got != 0 {
		t.Fatalf("fast path updated stats (%d delivered)", got)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d frames leaked", pool.InUse())
	}
}

type releaser struct{}

func (releaser) Deliver(f *fabric.Frame) { f.Release() }
