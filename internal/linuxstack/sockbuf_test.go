package linuxstack

import (
	"runtime/debug"
	"testing"
	"time"

	"ix/internal/sim"
	"ix/internal/sockcore"
)

// TestConnStateSizes pins the socket state the Linux model charges per
// established connection: the shared socket, one per connection, within
// 48 B, and the staging buffer Footprint charges per attached socket,
// which holds the receive chain's pointer and the send arena an idle
// socket does not carry (DESIGN.md, "Per-connection memory budget").
func TestConnStateSizes(t *testing.T) {
	if sockcore.SockBytes > 48 {
		t.Fatalf("a Linux socket is %d bytes, budget 48", sockcore.SockBytes)
	}
	if sockcore.BufBytes != 56 {
		t.Fatalf("a Linux socket's attached buffer is %d bytes, want 56", sockcore.BufBytes)
	}
}

// echoAllocs runs one Linux echo connection of msg-byte messages until it
// is warm, then counts the allocations of 20 ms more; it returns them with
// the echoes completed meanwhile, and the pair.
func echoAllocs(t *testing.T, msg int) (allocs float64, echoes int, p *bulkPair) {
	t.Helper()
	p = newBulkPair(linux, msg, 1<<30, nil)
	until := 10 * time.Millisecond
	p.run(until)
	if p.ce.done == 0 {
		t.Fatalf("%d B echo did not start", msg)
	}
	// AllocsPerRun counts the whole process's allocations. The runtime's
	// background scavenger, when a collection left it pages to return to
	// the OS, re-arms its timer after each batch, and adding that timer
	// can grow a timer heap: one 16 B allocation charged to the echo.
	// Returning every free page first leaves the scavenger nothing to do.
	debug.FreeOSMemory()
	// AllocsPerRun warms up with one unmeasured call, then measures one.
	start := 0
	allocs = testing.AllocsPerRun(1, func() {
		start = p.ce.done
		until += 20 * time.Millisecond
		p.eng.RunUntil(sim.Time(until))
	})
	if echoes = p.ce.done - start; echoes < 50 {
		t.Fatalf("%d B: only %d echoes in the measured window", msg, echoes)
	}
	if p.ce.bad != 0 {
		t.Fatalf("%d B: %d echoes corrupted", msg, p.ce.bad)
	}
	return allocs, echoes, p
}

// TestZeroAllocSockBufPool: once warm, a Linux echo connection's staging
// cycles through the layer's pools. A 4 KiB echo — the small buffer
// borrowed first, then a slab on each side for the bytes past it, and a
// pooled send chunk for each write — allocates nothing on either host.
// So does a 64 B echo: each write lands in a pooled chunk, receiving
// goes through the pooled small buffer, and each host's pool holds the
// one buffer object its one socket needs.
func TestZeroAllocSockBufPool(t *testing.T) {
	if allocs, echoes, _ := echoAllocs(t, 4<<10); allocs != 0 {
		t.Fatalf("%d warm 4 KiB echoes allocate %.0f times, want 0", echoes, allocs)
	}
	allocs, echoes, p := echoAllocs(t, 64)
	if allocs != 0 {
		t.Fatalf("%d warm 64 B echoes allocate %.0f times, want 0", echoes, allocs)
	}
	for name, h := range map[string]*Host{"server": p.srv.(*Host), "client": p.cli.(*Host)} {
		// The socket layer's objects: the host's less its TCP engine's.
		f, tf := h.Footprint(), h.Stack().TCP().Footprint()
		if pooled, attached := f.Pooled-tf.Pooled, f.Attached-tf.Attached; pooled+attached != 1 {
			t.Fatalf("%s: %d buffer objects pooled and %d attached for one socket, want 1 in all", name, pooled, attached)
		}
	}
}
