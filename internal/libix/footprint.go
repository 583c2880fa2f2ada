package libix

import (
	"unsafe"

	"ix/internal/mem"
	"ix/internal/memprobe"
)

// Footprint implements the memprobe accounting contract for the
// user-level library: the program's handle table and, per flow, the
// connection descriptor — plus, only while one is attached, the
// borrowed connIO with the capacities of its transmit vector and
// receive-recycling batch and the TX arena's pinned chunks. Reported as
// a layer on top of the TCP engine's own tally (core.Dataplane.Footprint
// adds the two), so Conns here counts libix descriptors — on an idle
// host it matches the TCP population minus embryonic connections that
// have not knocked yet.
func (p *program) Footprint() memprobe.Footprint {
	const (
		connBytes  = int64(unsafe.Sizeof(conn{}))
		ioBytes    = int64(unsafe.Sizeof(connIO{}))
		slotBytes  = int64(unsafe.Sizeof((*conn)(nil)))
		sliceBytes = int64(unsafe.Sizeof([]byte(nil)))
		ptrBytes   = int64(unsafe.Sizeof((*mem.Mbuf)(nil)))
	)
	f := memprobe.Footprint{
		Bytes:  int64(cap(p.byHandle)) * slotBytes,
		Pooled: len(p.ioFree),
	}
	if p.first {
		// The cookie table is shared by every thread's program; thread 0
		// accounts its backing so the bytes are charged exactly once.
		f.Bytes += p.tab.Bytes()
	}
	for _, c := range p.byHandle {
		if c == nil {
			continue
		}
		f.Conns++
		f.Bytes += connBytes
		if io := c.io; io != nil {
			f.Attached++
			f.Bytes += ioBytes + int64(cap(io.txq))*sliceBytes +
				int64(cap(io.rdBufs))*ptrBytes + io.arena.FootprintBytes()
		}
	}
	return f
}
