// Deterministic green threads for the blocking facade.
//
// A fiber is a runtime coroutine (iter.Pull): pump resumes it with
// next() and stays suspended until the fiber parks with yield() or
// returns. Either way it is a direct switch between two goroutines that
// never goes through the Go scheduler. At any instant at most one party
// — the simulation thread or a single fiber — is running, so fibers may
// touch per-thread state without locks, and iter.Pull carries the race
// detector's happens-before edge across every switch. A panic or Goexit
// in a fiber surfaces in the pump that resumed it; a fiber that never
// finishes stays parked for the life of the process (no teardown).
//
// Determinism: wakeups enqueue on a FIFO run queue and the pump drains
// it in order, so for a fixed event sequence (which the engine already
// guarantees per seed) the fiber interleaving is a pure function of the
// program. No wall clock, no channel, nothing runnable concurrently.
package ixnet

import "iter"

// sched runs a thread's fibers. It is owned by the elastic thread's
// event loop: pump may only be called from simulation context (handler
// callbacks, timer callbacks, factory init), park only from a fiber.
type sched struct {
	runq fifo[*fiber] // runnable fibers
	cur  *fiber       // the running fiber, nil in sim context
	// pumping guards against re-entry when a public API that kicks the
	// pump is invoked from fiber context (the outer pump's loop will
	// reach the new work).
	pumping bool
}

type fiber struct {
	next   func() (struct{}, bool) // pump→fiber: run to the next park; false once fn returned
	yield  func(struct{}) bool     // fiber→pump: park
	queued bool                    // sitting in runq
	done   bool
}

// spawn makes fn a runnable fiber; it starts executing at the next pump.
func (s *sched) spawn(fn func()) *fiber {
	f := &fiber{}
	f.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		f.yield = yield
		fn()
	})
	s.wake(f)
	return f
}

// wake marks f runnable. Idempotent while queued; a no-op for finished
// fibers. Callable from either context.
//
//ix:hotpath
func (s *sched) wake(f *fiber) {
	if f == nil || f.queued || f.done {
		return
	}
	f.queued = true
	s.runq.push(f)
}

// current returns the running fiber; it panics outside fiber context —
// blocking facade calls (Read, Write, Accept, Dial, Sleep) are only
// legal from a fiber.
func (s *sched) current() *fiber {
	if s.cur == nil {
		panic("ixnet: blocking call outside fiber context (use Net.Go)")
	}
	return s.cur
}

// park switches back to the pump until the current fiber's next wake.
//
//ix:hotpath
func (s *sched) park() {
	s.current().yield(struct{}{})
}

// pump drains the run queue, running each fiber to its next park (or
// completion). Fibers woken mid-drain run in the same pass. Must be
// called from simulation context; a call from fiber context (via a
// public API) is a harmless no-op because the active pump's loop picks
// up the new work.
//
//ix:hotpath
func (s *sched) pump() {
	if s.pumping {
		return
	}
	s.pumping = true
	for s.runq.len() > 0 {
		f := s.runq.pop()
		f.queued = false
		s.cur = f
		_, parked := f.next()
		f.done = !parked
		s.cur = nil
	}
	s.pumping = false
}
