package netstack

import (
	"time"

	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/timerwheel"
)

// Driver is the host side of one NIC queue pair, shared by the three host
// models. They differ in when they service the queue — IX in its
// run-to-completion cycle, Linux in NAPI softirq, mTCP in its polling TCP
// thread — and in what a received frame costs, not in how that frame
// becomes an mbuf or how assembled frames reach the TX ring: that is this.
type Driver struct {
	RX   *nicsim.RxQueue
	TX   *nicsim.TxQueue
	Pool *mem.MbufPool
	// Price is the CPU cost of one received frame, charged for every
	// frame delivered. It is asked before delivery, because the stack may
	// recycle the frame once it has consumed it.
	Price func(f *fabric.Frame) time.Duration

	// PoolDrops counts received frames released because the pool was dry.
	PoolDrops uint64

	// staged accumulates the running task's frames, posting holds those
	// handed to the task's end, and spare recycles the posted backing, so
	// the ping-pong does not allocate.
	staged, posting, spare []*fabric.Frame
}

// Receive takes up to budget frames off the RX ring and delivers each to s
// in an mbuf of the pool, charging m its price; a frame that finds the
// pool dry is released and counted instead. It returns the frames taken.
//
//ix:hotpath
func (d *Driver) Receive(m *sim.Meter, s *Stack, budget int) int {
	frames := d.RX.Take(budget)
	for _, f := range frames {
		buf := d.Pool.Alloc()
		if buf == nil {
			d.PoolDrops++
			f.Release()
			continue
		}
		m.Charge(d.Price(f))
		buf.Adopt(f)
		s.Input(buf)
		buf.Unref()
	}
	return len(frames)
}

// Stage queues an assembled frame for the TX ring: it is the stack's
// SendFrame.
//
//ix:hotpath
func (d *Driver) Stage(f *fabric.Frame) { d.staged = append(d.staged, f) }

// PostAtEnd hands the frames staged so far to the end of m's task, when
// they reach the TX ring in the order they were staged.
//
//ix:hotpath
func (d *Driver) PostAtEnd(m *sim.Meter) {
	d.posting = d.staged
	d.staged = d.spare[:0]
	d.spare = nil
	m.AtEndCall(postStaged, d)
}

// postStaged is PostAtEnd's end action (pooled, no closure).
func postStaged(a any) {
	d := a.(*Driver)
	d.spare = d.post(d.posting)
	d.posting = nil
}

// Post places the frames staged so far on the TX ring now, for a host
// that will not reach another task end to post them.
func (d *Driver) Post() { d.staged = d.post(d.staged) }

// post places out on the TX ring in order and returns its emptied backing.
//
//ix:hotpath
func (d *Driver) post(out []*fabric.Frame) []*fabric.Frame {
	for i, f := range out {
		d.TX.Post(f)
		out[i] = nil
	}
	return out[:0]
}

// TimerWake keeps one engine event armed at a timer wheel's next fire
// time, for the baselines, which advance their wheel only inside a task:
// when it comes due, the wake's fire func submits one.
type TimerWake struct {
	eng   *sim.Engine
	wheel *timerwheel.Wheel
	fired func() // clears ev and calls fire, made once
	ev    *sim.Event
}

// NewTimerWake returns a wake for wheel that calls fire when it comes due.
func NewTimerWake(eng *sim.Engine, wheel *timerwheel.Wheel, fire func()) *TimerWake {
	w := &TimerWake{eng: eng, wheel: wheel}
	w.fired = func() {
		w.ev = nil
		fire()
	}
	return w
}

// Arm keeps the wake at the wheel's NextFireTime, never its raw deadline:
// a deadline inside the current wheel tick cannot fire before the next
// tick boundary, and waking for it earlier would run tasks in which
// Advance makes no progress, one virtual instant after another. An
// earlier wake already armed is kept; a later one is moved up.
func (w *TimerWake) Arm() {
	ft, ok := w.wheel.NextFireTime()
	if !ok {
		return
	}
	at := sim.Time(ft)
	if now := w.eng.Now(); at < now {
		// The wheel's clock lags the engine (no task ran lately): wake
		// now; the task's Advance catches the wheel up, and the next
		// arming lands strictly in the future.
		at = now
	}
	if w.ev != nil {
		if w.ev.At() <= at {
			return
		}
		w.eng.Cancel(w.ev)
	}
	w.ev = w.eng.At(at, w.fired)
}
