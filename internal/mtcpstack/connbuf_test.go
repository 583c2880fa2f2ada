package mtcpstack

import (
	"testing"

	"ix/internal/sockcore"
)

// TestConnStateSizes pins the socket state the mTCP model charges per
// established connection: the shared socket, one per connection, within
// 48 B, and the staging buffer charged per attached socket, 56 B with the
// receive chain's pointer and the send arena an idle socket does not
// carry — facade_httpkv's mTCP stage charges both into
// memprobe.bytes_per_conn, a sim_digest input.
func TestConnStateSizes(t *testing.T) {
	if sockcore.SockBytes > 48 {
		t.Fatalf("an mTCP socket is %d bytes, budget 48", sockcore.SockBytes)
	}
	if sockcore.BufBytes != 56 {
		t.Fatalf("an mTCP socket's attached buffer is %d bytes, want 56", sockcore.BufBytes)
	}
}

// TestZeroAllocConnBufPool: once warm, an mTCP echo connection borrows
// its staging from the core's pools and returns it. A 4 KiB echo — the
// small buffer borrowed first, then a slab on each side for the bytes
// past it, and a pooled send chunk for each write — allocates nothing on
// either host, handoffs between the TCP and application threads
// included, and neither does a 64 B echo. With 64 B messages each host's
// pool holds the one buffer object its one socket needs, whoever borrows
// it.
func TestZeroAllocConnBufPool(t *testing.T) {
	if allocs, rpcs, _ := echoAllocs(t, 4<<10); allocs != 0 {
		t.Fatalf("%d warm 4 KiB echoes allocate %.0f times, want 0", rpcs, allocs)
	}
	allocs, rpcs, hosts := echoAllocs(t, 64)
	if allocs != 0 {
		t.Fatalf("%d warm 64 B echoes allocate %.0f times, want 0", rpcs, allocs)
	}
	for i, h := range hosts {
		// The socket layer's objects: the host's less its TCP engine's.
		f, tf := h.Footprint(), h.Stack(0).TCP().Footprint()
		if pooled, attached := f.Pooled-tf.Pooled, f.Attached-tf.Attached; pooled+attached != 1 {
			t.Fatalf("host %d: %d buffer objects pooled and %d attached for one connection, want 1 in all", i, pooled, attached)
		}
	}
}
