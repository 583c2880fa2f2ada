// Package a exercises the ownership analyzer: use-after-Release, double
// Release, and error-path leaks of pooled fabric.Frame / mem.TxChunk
// values, plus every sanctioned way of discharging the obligation.
package a

import (
	"fabric"
	"mem"
)

type host struct {
	pool *fabric.FramePool
	port *fabric.Port
	ring []*fabric.Frame
}

// --- red: use after Release ---

func useAfterRelease(f *fabric.Frame) int {
	f.Release()
	return len(f.Data) // want `use of pooled f after Release`
}

func detachAfterRelease(f *fabric.Frame) {
	f.Release()
	f.Detach() // want `use of f after Release: Detach on a released value`
}

// --- red: double Release ---

func doubleRelease(f *fabric.Frame) {
	f.Release()
	f.Release() // want `double Release of pooled f`
}

func deferThenRelease(f *fabric.Frame) {
	defer f.Release()
	f.Release() // want `runs again when the deferred Release fires`
}

// --- red: Release after an mbuf adopted the frame ---

func releaseAfterAdopt(p *mem.MbufPool, frames []*fabric.Frame) {
	for _, f := range frames {
		m := p.Alloc()
		m.Adopt(f)
		f.Release() // want `Release of f after an mbuf adopted it`
		m.Unref()
	}
}

func releaseAcquiredAfterAdopt(h *host, m *mem.Mbuf) {
	f := h.pool.Get(64)
	m.Adopt(f)
	f.Release() // want `Release of f after an mbuf adopted it`
}

// --- red: error-path leak (the PR 3/PR 4 class) ---

func errPathLeak(h *host, n int, bad bool) {
	f := h.pool.Get(n)
	if bad {
		return // want `return leaks pooled f`
	}
	h.port.Send(f)
}

func leakByFallingOff(h *host) {
	f := h.pool.Get(64) // acquired...
	_ = f.Len()
} // want `return leaks pooled f`

func overwriteLeak(h *host) {
	f := h.pool.Get(64)
	f = h.pool.Get(128) // want `overwritten without Release/Detach/handoff`
	h.port.Send(f)
}

func chunkLeak(p *mem.TxChunkPool, fail bool) int {
	k := p.Alloc()
	if fail {
		return 0 // want `return leaks pooled k`
	}
	n := k.Append([]byte("x"))
	k.Release()
	return n
}

// --- green: obligations discharged ---

func releasedOnErrPath(h *host, n int, bad bool) {
	f := h.pool.Get(n)
	if bad {
		f.Release()
		return
	}
	h.port.Send(f)
}

func detachHandoff(h *host, n int) *fabric.Frame {
	f := h.pool.Get(n)
	f.Detach() // pool accounting balanced; caller owns the bytes
	return f
}

func returnedToCaller(h *host, n int) *fabric.Frame {
	return h.pool.Get(n)
}

func storedInRing(h *host, n int) {
	f := h.pool.Get(n)
	h.ring = append(h.ring, f)
}

func deferredRelease(h *host, n int) int {
	f := h.pool.Get(n)
	defer f.Release()
	return len(f.Data)
}

func releasedBothBranches(h *host, n int, bad bool) {
	f := h.pool.Get(n)
	if bad {
		f.Release()
	} else {
		h.port.Send(f)
	}
	// merged state is divergent: no further obligations, no reports
}

func adoptHandsOff(h *host, m *mem.Mbuf) int {
	f := h.pool.Get(64)
	m.Adopt(f) // the mbuf releases it at its last Unref
	return len(f.Data)
}

func adoptOrDrop(p *mem.MbufPool, frames []*fabric.Frame) {
	for _, f := range frames {
		m := p.Alloc()
		if m == nil {
			f.Release() // pool exhausted: the frame is dropped here
			continue
		}
		m.Adopt(f)
		m.Unref()
	}
}

func consumerReleases(h *host, fs []*fabric.Frame) {
	for _, f := range fs {
		f.Release()
	}
}

func nilRefinement(p *mem.TxChunkPool) *mem.TxChunk {
	k := p.Alloc()
	if k == nil {
		return nil // exhausted pool: nothing acquired, nothing leaks
	}
	return k
}

func nilRefinementNeq(p *mem.TxChunkPool) *mem.TxChunk {
	k := p.Alloc()
	if k != nil {
		return k
	}
	return nil // nil world: no obligation
}

// --- green: suppression with a reason ---

func suppressedLeak(h *host, bad bool) {
	f := h.pool.Get(16)
	if bad {
		//ixvet:ignore(ownership) fixture: documented intentional leak for the suppression green case
		return
	}
	h.port.Send(f)
}
