package mtcpstack

import (
	"unsafe"

	"ix/internal/memprobe"
	"ix/internal/tcp"
)

// grantConn registers mc in the core's connection table and returns
// its compact cookie id (slot index + 1; 0 keeps its "no conn"
// meaning).
func (m *mcore) grantConn(mc *mconn) uint64 {
	if n := len(m.mconnFree); n > 0 {
		idx := m.mconnFree[n-1]
		m.mconnFree = m.mconnFree[:n-1]
		m.mconns[idx] = mc
		return uint64(idx) + 1
	}
	m.mconns = append(m.mconns, mc)
	return uint64(len(m.mconns))
}

// revokeConn clears the slot and frees the id for reuse.
func (m *mcore) revokeConn(id uint64) {
	if id == 0 || id > uint64(len(m.mconns)) {
		return
	}
	m.mconns[id-1] = nil
	m.mconnFree = append(m.mconnFree, uint32(id-1))
}

// connOf resolves a kernel connection's user-level adapter (nil for
// embryonic connections that have not been accepted yet).
func (m *mcore) connOf(c *tcp.Conn) *mconn {
	id := c.Cookie
	if id == 0 || id > uint64(len(m.mconns)) {
		return nil
	}
	return m.mconns[id-1]
}

// Footprint implements the memprobe accounting contract for the mTCP
// host model: each core's TCP engine tally plus its connection table
// and, per connection, the user-level connection struct — and, only
// while one is attached, the borrowed connBuf with the capacities of
// its staging buffers.
func (h *Host) Footprint() memprobe.Footprint {
	const (
		mconnBytes = int64(unsafe.Sizeof(mconn{}))
		bufBytes   = int64(unsafe.Sizeof(connBuf{}))
		slotBytes  = int64(unsafe.Sizeof((*mconn)(nil)))
	)
	var f memprobe.Footprint
	for _, mc := range h.cores {
		st := mc.ns.TCP()
		f.Add(st.Footprint())
		f.Bytes += int64(cap(mc.mconns))*slotBytes + int64(cap(mc.mconnFree))*4
		f.Pooled += len(mc.bufFree)
		st.EachConn(func(c *tcp.Conn) {
			u := mc.connOf(c)
			if u == nil {
				return // embryonic: no mconn until accept
			}
			f.Bytes += mconnBytes
			if b := u.buf; b != nil {
				f.Attached++
				f.Bytes += bufBytes + int64(cap(b.rcvbuf)) + int64(cap(b.sndbuf))
			}
		})
	}
	return f
}
