package tcp

import (
	"unsafe"

	"ix/internal/memprobe"
	"ix/internal/timerwheel"
)

// Footprint implements the memprobe accounting contract for the TCP
// engine: the arena at its capacity (arena.bytes), the table's slot
// words, the flight directory, the live handshake-queue entries and
// their timer, and each flight a connection borrows — with its spilled
// backings, reassembly queue and armed timers. Attached counts borrowed
// flights, Pooled the parked ones. Sampling it never perturbs the
// simulation.
func (s *Stack) Footprint() memprobe.Footprint {
	const (
		segBytes    = int64(unsafe.Sizeof(txSeg{}))
		rxBytes     = int64(unsafe.Sizeof(rxSeg{}))
		reasmBytes  = int64(unsafe.Sizeof(reasmQ{}))
		timerBytes  = int64(unsafe.Sizeof(timerwheel.Timer{}))
		sliceBytes  = int64(unsafe.Sizeof([]byte(nil)))
		flightBytes = int64(unsafe.Sizeof(flight{}))
		synBytes    = int64(unsafe.Sizeof(synEntry{}))
	)
	f := memprobe.Footprint{
		Bytes: s.arena.bytes() + int64(cap(s.conns.slots))*4 +
			int64(cap(s.flights))*8 + int64(cap(s.flightFree))*4 +
			int64(len(s.synQ)-s.synHead)*synBytes,
		Pooled: len(s.flightFree),
	}
	if s.synTimer != nil {
		f.Bytes += timerBytes
	}
	s.EachConn(func(c *Conn) {
		f.Conns++
		fl := c.flight(s)
		if fl == nil {
			return
		}
		f.Attached++
		b := flightBytes
		if cap(fl.q) > retransInline {
			b += int64(cap(fl.q)) * segBytes // spilled backing
		}
		for i := int(fl.head); i < len(fl.q); i++ {
			b += int64(cap(fl.q[i].extra)) * sliceBytes
		}
		if q := fl.reasm; q != nil {
			b += reasmBytes + int64(cap(q.segs))*rxBytes
		}
		if fl.timer != nil {
			b += timerBytes
		}
		if fl.daTimer != nil {
			b += timerBytes
		}
		f.Bytes += b
	})
	return f
}
