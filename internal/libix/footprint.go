package libix

import (
	"unsafe"

	"ix/internal/mem"
	"ix/internal/memprobe"
)

// Footprint implements the memprobe accounting contract for the
// user-level library: the cookie table's backing and, for each
// connection it names, the descriptor — plus, only while one is
// attached, the borrowed connIO with the capacity of its
// receive-recycling batch and the TX arena's pinned chunks.
// Every thread's program shares the table, so thread 0's walks it once
// for the host; each program adds only its own pooled connIO count.
// Reported as a layer on top of the TCP engine's own tally
// (core.Dataplane.Footprint adds the two), so Conns here counts libix
// descriptors — on an idle host the TCP population minus embryonic
// connections that have not knocked yet.
func (p *program) Footprint() memprobe.Footprint {
	const (
		connBytes = int64(unsafe.Sizeof(conn{}))
		ioBytes   = int64(unsafe.Sizeof(connIO{}))
		ptrBytes  = int64(unsafe.Sizeof((*mem.Mbuf)(nil)))
	)
	f := memprobe.Footprint{Pooled: len(p.ioFree)}
	if !p.first {
		return f
	}
	f.Bytes = p.tab.Bytes()
	p.tab.Each(func(c *conn) {
		f.Conns++
		f.Bytes += connBytes
		if io := c.io; io != nil {
			f.Attached++
			f.Bytes += ioBytes + int64(cap(io.rdBufs))*ptrBytes + io.arena.FootprintBytes()
		}
	})
	return f
}
