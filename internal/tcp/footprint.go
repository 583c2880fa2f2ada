package tcp

import (
	"unsafe"

	"ix/internal/memprobe"
	"ix/internal/timerwheel"
)

// Footprint implements the memprobe accounting contract for the TCP
// engine: the connection table's slot and tag arrays, the entries the
// handshake deadline queue holds (its spare capacity, like a pool, is
// not charged) and its one timer, and per live connection
// the PCB struct itself plus the flight it borrows while something is
// pending — with the retransmission queue's spilled backing and
// scatter-gather spill slices, the reassembly queue, and the timer
// nodes the connection currently pins on the wheel (armed timers only;
// the wheel's free list is amortized across the population and not
// charged to anyone). Attached counts connections holding a flight,
// Pooled the flights parked in the stack's pool. The walk is read-only
// arithmetic over Go-visible state: sampling it never perturbs the
// simulation.
func (s *Stack) Footprint() memprobe.Footprint {
	const (
		connBytes   = int64(unsafe.Sizeof(Conn{}))
		slotBytes   = int64(unsafe.Sizeof((*Conn)(nil)))
		segBytes    = int64(unsafe.Sizeof(txSeg{}))
		rxBytes     = int64(unsafe.Sizeof(rxSeg{}))
		reasmBytes  = int64(unsafe.Sizeof(reasmQ{}))
		timerBytes  = int64(unsafe.Sizeof(timerwheel.Timer{}))
		sliceBytes  = int64(unsafe.Sizeof([]byte(nil)))
		flightBytes = int64(unsafe.Sizeof(flight{}))
		synBytes    = int64(unsafe.Sizeof(synEntry{}))
	)
	f := memprobe.Footprint{
		Bytes:  int64(cap(s.conns.slots))*slotBytes + int64(cap(s.conns.tags)) + int64(len(s.synQ)-s.synHead)*synBytes,
		Pooled: len(s.flightFree),
	}
	if s.synTimer != nil {
		f.Bytes += timerBytes
	}
	for _, c := range s.conns.slots {
		if c == nil {
			continue
		}
		f.Conns++
		b := connBytes
		if fl := c.fl; fl != nil {
			f.Attached++
			b += flightBytes
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
		}
		f.Bytes += b
	}
	return f
}
