package sim

import (
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(10, func() { got = append(got, 1) })
	e.At(5, func() { got = append(got, 0) })
	e.At(10, func() { got = append(got, 2) }) // same time: FIFO by seq
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", got)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(time.Microsecond, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []time.Duration{10, 20, 30} {
		d := d
		e.After(d*time.Nanosecond, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=20, want 2", len(fired))
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
}

// TestEngineHeapOrder: events fire in (time, scheduling order) however
// the heap arranges them — many share a time, some are cancelled from
// the middle of the heap, and callbacks schedule more — and cancelled
// events never fire.
func TestEngineHeapOrder(t *testing.T) {
	e := NewEngine(3)
	rng := e.Rand()
	type key struct{ at, seq int64 }
	type sched struct {
		ev *Event
		k  key
	}
	var fired []key
	var pending []sched
	cancelled := map[key]bool{}
	seq := int64(0)
	var schedule func(depth int)
	schedule = func(depth int) {
		seq++
		k := key{at: int64(e.Now()) + rng.Int63n(64), seq: seq}
		ev := e.At(Time(k.at), func() {
			fired = append(fired, k)
			if depth < 3 && rng.Intn(2) == 0 {
				schedule(depth + 1)
			}
		})
		pending = append(pending, sched{ev, k})
	}
	for i := 0; i < 3000; i++ {
		schedule(0)
		if i%7 == 0 {
			// Only events still queued in the heap: not yet fired,
			// so not yet recycled.
			if p := pending[rng.Intn(len(pending))]; p.ev.index >= 0 && !cancelled[p.k] {
				e.Cancel(p.ev)
				cancelled[p.k] = true
			}
		}
		if i%500 == 499 {
			e.RunUntil(e.Now() + 8)
			pending = pending[:0]
		}
	}
	e.Run()
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.at > b.at || a.at == b.at && a.seq > b.seq {
			t.Fatalf("event %d fired as %+v after %+v", i, b, a)
		}
	}
	for _, k := range fired {
		if cancelled[k] {
			t.Fatalf("cancelled event %+v fired", k)
		}
	}
	if len(fired) < 3000*5/7 {
		t.Fatalf("only %d events fired", len(fired))
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var trace []int64
		var rec func()
		n := 0
		rec = func() {
			trace = append(trace, int64(e.Now()))
			n++
			if n < 50 {
				e.After(time.Duration(e.Rand().Intn(1000))*time.Nanosecond, rec)
			}
		}
		e.After(0, rec)
		e.Run()
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCoreSerializesTasks(t *testing.T) {
	e := NewEngine(1)
	c := NewCore(e, 0)
	var done []Time
	for i := 0; i < 3; i++ {
		c.Submit(ClassDataplane, func(m *Meter) {
			m.Charge(100 * time.Nanosecond)
			m.AtEndCall(func(any) { done = append(done, e.Now()) }, nil)
		})
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("task %d finished at %v, want %v", i, done[i], w)
		}
	}
}

func TestCoreContextSwitchCharge(t *testing.T) {
	e := NewEngine(1)
	c := NewCore(e, 0)
	c.CtxSwitch = 50 * time.Nanosecond
	var end Time
	c.Submit(ClassKernel, func(m *Meter) { m.Charge(100 * time.Nanosecond) })
	c.Submit(ClassUser, func(m *Meter) {
		m.Charge(100 * time.Nanosecond)
		m.AtEndCall(func(any) { end = e.Now() }, nil)
	})
	e.Run()
	// 100 (kernel) + 50 (switch) + 100 (user) = 250.
	if end != 250 {
		t.Fatalf("end = %v, want 250", end)
	}
}

func TestCoreSubmitAfterDelay(t *testing.T) {
	e := NewEngine(1)
	c := NewCore(e, 0)
	var start Time
	c.SubmitAfter(500*time.Nanosecond, ClassUser, func(m *Meter) { start = e.Now() })
	e.Run()
	if start != 500 {
		t.Fatalf("task started at %v, want 500", start)
	}
}

func TestCoreUtilization(t *testing.T) {
	e := NewEngine(1)
	c := NewCore(e, 0)
	c.Submit(ClassKernel, func(m *Meter) { m.Charge(300 * time.Nanosecond) })
	c.Submit(ClassUser, func(m *Meter) { m.Charge(100 * time.Nanosecond) })
	e.Run()
	e.RunUntil(1000)
	by, total := c.Utilization()
	if total < 0.39 || total > 0.41 {
		t.Fatalf("total utilization = %v, want ~0.4", total)
	}
	if by[ClassKernel] < 0.29 || by[ClassKernel] > 0.31 {
		t.Fatalf("kernel utilization = %v, want ~0.3", by[ClassKernel])
	}
}

func TestMeterAtEndOrder(t *testing.T) {
	e := NewEngine(1)
	c := NewCore(e, 0)
	var order []int
	record := func(a any) { order = append(order, a.(int)) }
	c.Submit(ClassDataplane, func(m *Meter) {
		m.AtEndCall(record, 1)
		m.AtEndCall(record, 2)
	})
	e.Run()
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("AtEndCall order = %v", order)
	}
}
