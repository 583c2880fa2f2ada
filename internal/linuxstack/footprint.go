package linuxstack

import (
	"unsafe"

	"ix/internal/memprobe"
	"ix/internal/tcp"
)

// grantSock registers s in the host's socket table and returns its
// compact cookie id (slot index + 1; 0 keeps its "no socket" meaning).
func (h *Host) grantSock(s *sock) uint64 {
	if n := len(h.sockFree); n > 0 {
		idx := h.sockFree[n-1]
		h.sockFree = h.sockFree[:n-1]
		h.socks[idx] = s
		return uint64(idx) + 1
	}
	h.socks = append(h.socks, s)
	return uint64(len(h.socks))
}

// revokeSock clears the slot and frees the id for reuse.
func (h *Host) revokeSock(id uint64) {
	if id == 0 || id > uint64(len(h.socks)) {
		return
	}
	h.socks[id-1] = nil
	h.sockFree = append(h.sockFree, uint32(id-1))
}

// sockOf resolves a kernel connection's socket adapter (nil for
// embryonic connections that have not been accepted yet).
func (h *Host) sockOf(c *tcp.Conn) *sock {
	id := c.Cookie
	if id == 0 || id > uint64(len(h.socks)) {
		return nil
	}
	return h.socks[id-1]
}

// Footprint implements the memprobe accounting contract for the Linux
// host model: the shared kernel stack's TCP tally plus the socket table
// and, per connection, the socket adapter struct — and, only while one
// is attached, the borrowed sockBuf with the capacities of its
// kernel-side receive and send staging buffers, and each staging slab
// attached to it (one side object of readChunk bytes apiece).
func (h *Host) Footprint() memprobe.Footprint {
	const (
		sockBytes = int64(unsafe.Sizeof(sock{}))
		bufBytes  = int64(unsafe.Sizeof(sockBuf{}))
		slotBytes = int64(unsafe.Sizeof((*sock)(nil)))
	)
	f := h.ns.TCP().Footprint()
	f.Bytes += int64(cap(h.socks))*slotBytes + int64(cap(h.sockFree))*4
	f.Pooled += len(h.bufFree) + len(h.slabFree)
	h.ns.TCP().EachConn(func(c *tcp.Conn) {
		s := h.sockOf(c)
		if s == nil {
			return // embryonic: no socket until accept
		}
		f.Bytes += sockBytes
		b := s.buf
		if b == nil {
			return
		}
		f.Attached++
		f.Bytes += bufBytes + int64(cap(b.rcvbuf))
		st := b.slabs
		if st == nil || st.snd == nil {
			f.Bytes += int64(cap(b.sndbuf)) // a slab-backed sndbuf is counted with its slab
		}
		if st != nil {
			n := st.count()
			f.Attached += n
			f.Bytes += int64(n) * readChunk
		}
	})
	return f
}
