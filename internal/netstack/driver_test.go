package netstack

import (
	"testing"
	"time"

	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// sink is the far end of the driver's cable: it records the first byte of
// every frame that arrives, in arrival order, and releases the frame.
type sink struct{ got []byte }

func (s *sink) Deliver(f *fabric.Frame) {
	s.got = append(s.got, f.Data[0])
	f.Release()
}

// rig is a driver over queue pair 0 of a one-queue NIC, whose mbuf pool
// draws on a grant of pages, cabled to a sink; its stack drops every
// frame the tests send it (no EtherType it knows).
type rig struct {
	eng    *sim.Engine
	nic    *nicsim.NIC
	frames *fabric.FramePool
	d      *Driver
	s      *Stack
	sink   *sink
}

func newRig(pages int) *rig {
	eng := sim.NewEngine(1)
	r := &rig{eng: eng, frames: fabric.NewFramePool(), sink: &sink{got: make([]byte, 0, 1024)}}
	r.nic = nicsim.New(eng, wire.MAC{2}, nicsim.Config{})
	link := fabric.NewLink(eng, 10*fabric.Gbps, time.Microsecond)
	r.nic.AttachPort(link.Port(0))
	link.Port(1).Attach(r.sink)
	r.d = &Driver{
		RX:    r.nic.RxQueue(0),
		TX:    r.nic.TxQueue(0),
		Pool:  mem.NewMbufPool(mem.NewRegion(pages), 0),
		Price: func(*fabric.Frame) time.Duration { return time.Microsecond },
	}
	now := int64(0)
	r.s = newHost(&now, wire.Addr4(10, 0, 0, 1), wire.MAC{2}, nil).s
	return r
}

// frame returns a pooled frame whose first byte is tag.
func (r *rig) frame(tag byte) *fabric.Frame {
	f := r.frames.Get(64)
	clear(f.Data)
	f.Data[0] = tag
	return f
}

// TestDriverPoolDry: a frame that finds the mbuf pool dry is dropped,
// counted and returned to its sender's pool, and costs nothing; with a
// page granted the same frame is priced and delivered. Either way the
// mbuf pool ends balanced.
func TestDriverPoolDry(t *testing.T) {
	for _, pages := range []int{0, 1} {
		r := newRig(pages)
		r.nic.Deliver(r.frame(1))
		var m sim.Meter
		if n := r.d.Receive(&m, r.s, 64); n != 1 {
			t.Fatalf("%d pages: took %d frames, want 1", pages, n)
		}
		dry := pages == 0
		wantDrops, wantIn, wantCost := uint64(0), uint64(1), time.Microsecond
		if dry {
			wantDrops, wantIn, wantCost = 1, 0, 0
		}
		if r.d.PoolDrops != wantDrops || r.s.RxFrames != wantIn {
			t.Errorf("%d pages: PoolDrops = %d, delivered %d; want %d, %d", pages, r.d.PoolDrops, r.s.RxFrames, wantDrops, wantIn)
		}
		if m.Elapsed() != wantCost {
			t.Errorf("%d pages: charged %v, want %v", pages, m.Elapsed(), wantCost)
		}
		if n := r.frames.InUse(); n != 0 {
			t.Errorf("%d pages: %d frames never returned to their pool", pages, n)
		}
		if n := r.d.Pool.InUse(); n != 0 {
			t.Errorf("%d pages: %d mbufs still in use", pages, n)
		}
	}
}

// TestDriverPostsStagedInOrder: frames a task stages reach the TX ring
// only at the task's end, in the order staged; a frame staged after
// PostAtEnd waits for the next post.
func TestDriverPostsStagedInOrder(t *testing.T) {
	r := newRig(1)
	core := sim.NewCore(r.eng, 0)
	core.Submit(sim.ClassKernel, func(m *sim.Meter) {
		for tag := byte(1); tag <= 3; tag++ {
			r.d.Stage(r.frame(tag))
		}
		r.d.PostAtEnd(m)
		r.d.Stage(r.frame(4))
		if n := r.d.TX.TxFrames; n != 0 {
			t.Errorf("%d frames on the TX ring before the task ended", n)
		}
		m.Charge(time.Microsecond)
	})
	r.eng.Run()
	if string(r.sink.got) != "\x01\x02\x03" {
		t.Fatalf("after the task's end the wire carried %v, want [1 2 3]", r.sink.got)
	}
	r.d.Post()
	r.eng.Run()
	if string(r.sink.got) != "\x01\x02\x03\x04" {
		t.Fatalf("after Post the wire carried %v, want [1 2 3 4]", r.sink.got)
	}
	if n := r.frames.InUse(); n != 0 {
		t.Errorf("%d frames never returned to their pool", n)
	}
}

// TestZeroAllocDriverCycle: once warm, one task that receives a frame,
// stages another and posts it at its end allocates nothing.
func TestZeroAllocDriverCycle(t *testing.T) {
	r := newRig(1)
	core := sim.NewCore(r.eng, 0)
	task := func(m *sim.Meter) {
		r.d.RX.PostDescriptors(r.d.Receive(m, r.s, 64))
		r.d.Stage(r.frame(1))
		r.d.PostAtEnd(m)
	}
	cycle := func() {
		r.nic.Deliver(r.frame(2))
		core.Submit(sim.ClassKernel, task)
		r.eng.Run()
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("a receive/stage/post cycle allocates %.1f times, want 0", a)
	}
	if r.s.RxFrames != 102 || len(r.sink.got) != 102 {
		t.Fatalf("%d frames received, %d sent; want 102 each", r.s.RxFrames, len(r.sink.got))
	}
}

// TestTimerWake: the wake sits at the wheel's next fire time. A deadline
// inside the current tick arms it at the next tick boundary, not now,
// which would run tasks without progress; a wheel lagging the engine
// wakes now; an earlier armed wake is kept and a later one moved up.
func TestTimerWake(t *testing.T) {
	tick := int64(timerwheel.DefaultTick)
	mid := sim.Time(10*tick + tick/2)
	// setup returns an engine at mid-tick, a wheel at advancedTo and
	// its wake.
	setup := func(advancedTo int64) (*sim.Engine, *timerwheel.Wheel, *TimerWake, *int) {
		eng := sim.NewEngine(1)
		eng.At(mid, func() {})
		eng.Run()
		w := timerwheel.New(timerwheel.DefaultTick, 0)
		w.Advance(advancedTo)
		fired := new(int)
		return eng, w, NewTimerWake(eng, w, func() { *fired++ }), fired
	}
	t.Run("skips-current-tick", func(t *testing.T) {
		eng, w, wake, _ := setup(int64(mid))
		w.Add(int64(eng.Now()), func() {})
		wake.Arm()
		if wake.ev == nil {
			t.Fatal("no wake armed for a pending deadline")
		}
		if got, want := wake.ev.At(), sim.Time(11*tick); got != want {
			t.Fatalf("wake at %v, want the next tick boundary %v", got, want)
		}
	})
	t.Run("lagging-wheel-wakes-now", func(t *testing.T) {
		eng, w, wake, fired := setup(0)
		w.Add(3*tick, func() {})
		wake.Arm()
		if wake.ev == nil || wake.ev.At() != eng.Now() {
			t.Fatalf("wake for a wheel behind the engine armed at %v, want now (%v)", wake.ev, eng.Now())
		}
		eng.Run()
		if *fired != 1 {
			t.Fatalf("wake fired %d times, want 1", *fired)
		}
	})
	t.Run("earlier-kept", func(t *testing.T) {
		_, w, wake, _ := setup(int64(mid))
		w.Add(20*tick, func() {})
		wake.Arm()
		first := wake.ev
		w.Add(40*tick, func() {})
		wake.Arm()
		if wake.ev != first || first.At() != sim.Time(20*tick) {
			t.Fatalf("a later deadline moved the wake armed at 20 ticks")
		}
	})
	t.Run("later-replaced", func(t *testing.T) {
		eng, w, wake, fired := setup(int64(mid))
		w.Add(40*tick, func() {})
		wake.Arm()
		w.Add(20*tick, func() {})
		wake.Arm()
		if got, want := wake.ev.At(), sim.Time(20*tick); got != want {
			t.Fatalf("wake at %v after an earlier deadline, want %v", got, want)
		}
		eng.Run()
		if *fired != 1 {
			t.Fatalf("wake fired %d times, want 1: the replaced event was not cancelled", *fired)
		}
	})
}
