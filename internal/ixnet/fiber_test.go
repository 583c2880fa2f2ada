// White-box tests for the fiber scheduler: the contracts the facade's
// callers cannot see from a cluster run — a wake/resume/park round trip
// allocates nothing, a fiber's panic lands on the goroutine that pumped
// it, and fibers spawned from fiber context run after their parent
// parks, in enqueue order.
package ixnet

import (
	"errors"
	"slices"
	"testing"
)

// parkLoop spawns a fiber that parks until *stop is set and runs it to
// its first park, which also warms the run queue's backing array.
func parkLoop(s *sched, stop *bool) *fiber {
	f := s.spawn(func() {
		for !*stop {
			s.park()
		}
	})
	s.pump()
	return f
}

// finish lets a parkLoop fiber return, so no test leaves a coroutine
// parked behind it.
func finish(t testing.TB, s *sched, f *fiber, stop *bool) {
	*stop = true
	s.wake(f)
	s.pump()
	if !f.done {
		t.Fatal("fiber did not finish after its loop condition cleared")
	}
}

func TestZeroAllocParkResume(t *testing.T) {
	var s sched
	stop := false
	f := parkLoop(&s, &stop)
	if n := testing.AllocsPerRun(1000, func() {
		s.wake(f)
		s.pump()
	}); n != 0 {
		t.Fatalf("wake → pump → park round trip allocates %.1f objects, want 0", n)
	}
	finish(t, &s, f, &stop)
}

func TestFiberPanicSurfacesInPump(t *testing.T) {
	var s sched
	boom := errors.New("boom")
	f := s.spawn(func() {
		s.park() // panic on a resume, not on the first run
		panic(boom)
	})
	s.pump()
	var got any
	func() {
		// recover only sees panics of its own goroutine: reaching it
		// proves the fiber's panic was re-raised on the pumping side.
		defer func() { got = recover() }()
		s.wake(f)
		s.pump()
	}()
	if got != boom {
		t.Fatalf("pump recovered %v, want the fiber's panic value %v", got, boom)
	}
}

func TestGoFromFiberRunsFIFO(t *testing.T) {
	n := &Net{}
	var log []string
	var parent *fiber
	n.Go(func() {
		parent = n.s.current()
		n.Go(func() { log = append(log, "child 1") })
		n.Go(func() { log = append(log, "child 2") })
		// Both nested pumps were no-ops: no child has run yet.
		log = append(log, "parent parks")
		n.s.park()
		log = append(log, "parent resumed")
	})
	if want := []string{"parent parks", "child 1", "child 2"}; !slices.Equal(log, want) {
		t.Fatalf("order = %q, want %q", log, want)
	}
	n.s.wake(parent)
	n.s.pump()
	if got := log[len(log)-1]; got != "parent resumed" || !parent.done {
		t.Fatalf("after wake: last = %q, done = %v; want the parent resumed and finished", got, parent.done)
	}
}

func TestFifoKeepsArrayAndClearsSlots(t *testing.T) {
	var q fifo[*int]
	a, b := new(int), new(int)
	q.push(a)
	q.push(b)
	if q.pop() != a || q.len() != 1 {
		t.Fatal("pop did not return the oldest element")
	}
	if q.q[0] != nil {
		t.Fatal("popped slot still pins its element")
	}
	if q.pop() != b || q.len() != 0 || q.head != 0 || cap(q.q) < 2 {
		t.Fatalf("drained queue: len %d head %d cap %d, want 0, 0 and the array kept", q.len(), q.head, cap(q.q))
	}
}

// BenchmarkFiberHandoff is one wake → resume → park round trip: two
// coroutine switches and a run-queue push and pop.
func BenchmarkFiberHandoff(b *testing.B) {
	var s sched
	stop := false
	f := parkLoop(&s, &stop)
	b.ReportAllocs()
	for b.Loop() {
		s.wake(f)
		s.pump()
	}
	finish(b, &s, f, &stop)
}
