package tcp

import (
	"unsafe"

	"ix/internal/memprobe"
	"ix/internal/timerwheel"
)

// Footprint implements the memprobe accounting contract for the TCP
// engine: the connection table's slot array, and per live connection
// the PCB struct itself plus whatever it holds while something is in
// flight — the pooled retransmission state (with spilled backing and
// scatter-gather spill slices), the reassembly queue — and the timer
// nodes the connection currently pins on the wheel (armed timers only;
// the wheel's free list is amortized across the population and not
// charged to anyone). The walk is read-only arithmetic over Go-visible
// state: sampling it never perturbs the simulation.
func (s *Stack) Footprint() memprobe.Footprint {
	const (
		connBytes    = int64(unsafe.Sizeof(Conn{}))
		slotBytes    = int64(unsafe.Sizeof((*Conn)(nil)))
		segBytes     = int64(unsafe.Sizeof(txSeg{}))
		rxBytes      = int64(unsafe.Sizeof(rxSeg{}))
		reasmBytes   = int64(unsafe.Sizeof(reasmQ{}))
		timerBytes   = int64(unsafe.Sizeof(timerwheel.Timer{}))
		sliceBytes   = int64(unsafe.Sizeof([]byte(nil)))
		txStateBytes = int64(unsafe.Sizeof(txState{}))
	)
	f := memprobe.Footprint{
		Bytes:  int64(cap(s.conns.slots)) * slotBytes,
		Pooled: len(s.txFree),
	}
	for _, c := range s.conns.slots {
		if c == nil {
			continue
		}
		f.Conns++
		b := connBytes
		if t := c.tx; t != nil {
			f.Attached++
			b += txStateBytes
			if cap(t.q) > retransInline {
				b += int64(cap(t.q)) * segBytes // spilled backing
			}
			for i := int(t.head); i < len(t.q); i++ {
				b += int64(cap(t.q[i].extra)) * sliceBytes
			}
		}
		if q := c.reasm; q != nil {
			f.Attached++
			b += reasmBytes + int64(cap(q.segs))*rxBytes
		}
		if c.timer != nil {
			b += timerBytes
		}
		if c.daTimer != nil {
			b += timerBytes
		}
		f.Bytes += b
	}
	return f
}
