package sim

import (
	"testing"
	"time"
)

// The steady-state event path — pooled one-shot scheduling via Call /
// CallAfter, same-instant ring dispatch, heap push/pop, and a func()
// scheduled with After or At and fired or cancelled — must not allocate:
// it runs once or more per simulated packet.

func TestZeroAllocEventCall(t *testing.T) {
	e := NewEngine(1)
	fn := func(any) {}
	fired := 0
	tick := func() { fired++ }
	// Warm the pool and the heap storage.
	for i := 0; i < 1024; i++ {
		e.CallAfter(time.Microsecond, fn, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.CallAfter(time.Microsecond, fn, nil) // heap path
		e.Call(e.Now(), fn, nil)               // same-instant ring path
		e.Step()
		e.Step()
		e.After(time.Microsecond, tick) // a func() fired
		e.Step()
		e.Cancel(e.At(e.Now().Add(time.Microsecond), tick)) // and cancelled
	})
	if fired != 1001 {
		t.Fatalf("After fired %d times, want 1001", fired)
	}
	if allocs != 0 {
		t.Fatalf("event schedule/fire allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkEventScheduleFire(b *testing.B) {
	e := NewEngine(1)
	fn := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.CallAfter(time.Microsecond, fn, nil)
		e.Step()
	}
}

func BenchmarkEventRingDispatch(b *testing.B) {
	e := NewEngine(1)
	fn := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Call(e.Now(), fn, nil)
		e.Step()
	}
}
