// Package sim provides the deterministic discrete-event engine that all of
// the IX reproduction runs on: a virtual nanosecond clock, a stable-order
// event queue, cancellable timers, and a model of CPU cores that serialize
// work items and account busy time.
//
// Everything in the repository executes on a single goroutine driven by
// Engine.Run; determinism is guaranteed by the stable (time, sequence)
// ordering of events and by using only the engine's seeded RNG.
//
// The event queue is built for the per-packet simulation hot path: events
// scheduled at the current instant go to a FIFO ring instead of the heap
// (most dispatches are "run this now"), one-shot fire-and-forget events
// created with Call/CallAfter are pooled and recycled without garbage, and
// cancellation is lazy (cancelled events are skipped when popped rather
// than removed from the middle of the heap).
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// An Event is a scheduled callback. Events are created with Engine.At or
// Engine.After and may be cancelled before they fire. One-shot events
// created with Call/CallAfter are pooled internally and never returned.
type Event struct {
	at  Time
	seq uint64
	// Exactly one of fn / fnArg is set; fnArg avoids a closure allocation
	// for hot-path callbacks that need a single argument.
	fn       func()
	fnArg    func(any)
	arg      any
	index    int // heap index, -1 if not queued in the heap
	canceled bool
	pooled   bool // recycled into the engine free list after firing
}

// At returns the virtual time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// heapEntry carries the ordering key by value so sift comparisons touch
// only the heap array — no pointer chasing on the hottest loop in the
// simulator.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *Event
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq). The
// wider fan-out halves tree depth versus a binary heap and the inlined
// comparisons avoid container/heap's interface dispatch. No two entries
// share a key (seq is unique), so the pop order is the key order however
// the sifts arrange the array.
type eventHeap []heapEntry

func entLess(a, b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// lessBit is entLess as 0 or 1, computed without a branch: the borrow
// out of the 128-bit subtraction (at, seq) − (at, seq), with at's sign
// bit flipped so the unsigned borrow orders it as signed. Which of four
// siblings is the smallest is a coin toss to the branch predictor, so
// siftDown picks it with these and pays no mispredictions.
func lessBit(a, b *heapEntry) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^1<<63, uint64(b.at)^1<<63, borrow)
	return int(borrow)
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, heapEntry{})
	h.siftUp(len(*h)-1, heapEntry{at: e.at, seq: e.seq, ev: e})
}

func (h eventHeap) siftUp(i int, e heapEntry) {
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !entLess(&e, &p) {
			break
		}
		h[i] = p
		p.ev.index = i
		i = parent
	}
	h[i] = e
	e.ev.index = i
}

func (h eventHeap) siftDown(i int, e heapEntry) {
	n := len(h)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		// Smallest of up to four children: a branch-free tournament
		// over a full group, a scan over the last, partial one.
		best := first
		if first+3 < n {
			g := h[first : first+4 : first+4]
			a := lessBit(&g[1], &g[0])
			b := 2 + lessBit(&g[3], &g[2])
			best += a + (b-a)*lessBit(&g[b], &g[a])
		} else {
			for c := first + 1; c < n; c++ {
				if entLess(&h[c], &h[best]) {
					best = c
				}
			}
		}
		bc := h[best]
		if !entLess(&bc, &e) {
			break
		}
		h[i] = bc
		bc.ev.index = i
		i = best
	}
	h[i] = e
	e.ev.index = i
}

// popMin removes and returns the minimum event.
func (h *eventHeap) popMin() *Event {
	old := *h
	top := old[0].ev
	n := len(old) - 1
	last := old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if n > 0 {
		(*h).siftDown(0, last)
	}
	top.index = -1
	return top
}

// remove deletes the event at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	ev := old[i].ev
	last := old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if i < n {
		// Re-place the substituted element in either direction.
		(*h).siftDown(i, last)
		if last.ev.index == i {
			(*h).siftUp(i, last)
		}
	}
	ev.index = -1
}

// Engine is the discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	// ring holds events scheduled at the current instant, in FIFO (= seq)
	// order. The engine's clock never advances while the ring is
	// non-empty, so ring events are always due. Heap events at the same
	// instant were necessarily scheduled earlier (smaller seq) and fire
	// first.
	ring     []*Event
	ringHead int
	free     []*Event // recycled pooled events
	rng      *rand.Rand

	// Processed counts events executed, for diagnostics.
	Processed uint64
}

// NewEngine returns an engine with its clock at zero and its RNG seeded
// with seed (the same seed always yields the same simulation).
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// alloc returns an event ready to schedule, recycled from the free list
// when possible. Every event returns to the pool when it fires or is
// cancelled, so steady-state scheduling — including the cancellable
// At/Cancel idle-wake churn of the OS models — does not allocate.
//
//ix:hotpath
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	//ixvet:ignore(hotpath) pool growth: every event recycles, so steady state hits the free list
	return &Event{pooled: true}
}

// recycle clears a popped event and returns pooled ones to the free list.
//
//ix:hotpath
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	if ev.pooled {
		ev.canceled = false
		e.free = append(e.free, ev)
	}
}

// schedule assigns the sequence number and queues ev: the same-instant
// ring when ev.at equals the current time, the heap otherwise.
//
//ix:hotpath
func (e *Engine) schedule(ev *Event) {
	if ev.at < e.now {
		//ixvet:ignore(hotpath) panic path: scheduling in the past is a modelling bug, never steady state
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	ev.canceled = false
	if ev.at == e.now {
		ev.index = -1
		e.ring = append(e.ring, ev)
		return
	}
	e.events.push(ev)
}

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it always indicates a modelling bug.
//
// The returned event may be cancelled until it fires. Once it has fired
// or been cancelled it belongs to the engine's pool again: the pointer
// must not be handed back to Cancel from a stale reference — null the
// reference when the callback runs or right after cancelling, as every
// in-tree caller does.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := e.alloc()
	ev.at = t
	ev.fn = fn
	e.schedule(ev)
	return ev
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Call schedules the one-shot fn(arg) at virtual time t. The event is
// pooled and recycled after it fires: it cannot be cancelled and no
// reference escapes. This is the allocation-free path for fire-and-forget
// hot-path work (frame arrivals, task dispatch, TX completions).
//
//ix:hotpath
func (e *Engine) Call(t Time, fn func(any), arg any) {
	ev := e.alloc()
	ev.at = t
	ev.fnArg = fn
	ev.arg = arg
	e.schedule(ev)
}

// CallAfter schedules the one-shot fn(arg) d from now (clamped at zero),
// with the same pooled, non-cancellable semantics as Call.
//
//ix:hotpath
func (e *Engine) CallAfter(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.Call(e.now.Add(d), fn, arg)
}

// ReserveSeq takes the next sequence number without scheduling anything:
// the event's place in the (time, seq) order is fixed now, the event
// itself is queued later by CallReserved. A FIFO whose entries fire in
// the order they were reserved (a link's frames in flight) keeps only
// its head in the heap this way and still fires exactly where per-entry
// events would have.
//
//ix:hotpath
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// CallReserved schedules the one-shot fn(arg) at t under a sequence
// number from ReserveSeq, with Call's pooled, non-cancellable semantics.
// It must be queued before the engine reaches (t, seq): earlier is fine,
// the order is by key, not by when the event was queued.
//
//ix:hotpath
func (e *Engine) CallReserved(t Time, seq uint64, fn func(any), arg any) {
	if t < e.now {
		//ixvet:ignore(hotpath) panic path: scheduling in the past is a modelling bug, never steady state
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = seq
	ev.fnArg = fn
	ev.arg = arg
	// Always the heap: a reserved seq may be older than same-instant ring
	// events, and next merges the two by seq.
	e.events.push(ev)
}

// Cancel prevents ev from firing. Cancelling a nil or already-cancelled
// event is a no-op. Heap events are removed eagerly and recycled (they
// may be far in the future); same-instant ring events are marked and
// recycled when the engine reaches them. The pointer is dead after
// Cancel returns.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		e.events.remove(ev.index)
		e.recycle(ev)
	}
}

// next pops the next due event, or nil when the engine is drained.
// Cancelled ring events are discarded here.
//
//ix:hotpath
func (e *Engine) next() *Event {
	for {
		var ev *Event
		if e.ringHead < len(e.ring) {
			// Ring events are due at the current instant, in seq order. A
			// heap event due now fires first when its seq is smaller —
			// always true of one scheduled before the clock reached this
			// instant, and decided by the key for a reserved seq.
			if len(e.events) > 0 && e.events[0].at <= e.now && e.events[0].seq < e.ring[e.ringHead].seq {
				ev = e.events.popMin()
			} else {
				ev = e.ring[e.ringHead]
				e.ring[e.ringHead] = nil
				e.ringHead++
				if e.ringHead == len(e.ring) {
					e.ring = e.ring[:0]
					e.ringHead = 0
				}
			}
		} else if len(e.events) > 0 {
			ev = e.events.popMin()
		} else {
			return nil
		}
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		return ev
	}
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
//
//ix:hotpath
func (e *Engine) Step() bool {
	ev := e.next()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.Processed++
	fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
	e.recycle(ev)
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then sets the clock to t.
// Events scheduled at exactly t are executed.
func (e *Engine) RunUntil(t Time) {
	for {
		if e.ringHead < len(e.ring) {
			// Same-instant events are due now (now ≤ t).
			e.Step()
			continue
		}
		if len(e.events) == 0 || e.events[0].at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// ringLive reports whether a live same-instant event is queued,
// discarding lazily-cancelled entries from the ring front. NextEventAt
// must not trust raw ring occupancy: a cancelled-only ring would
// understate the next event time.
func (e *Engine) ringLive() bool {
	for e.ringHead < len(e.ring) {
		ev := e.ring[e.ringHead]
		if !ev.canceled {
			return true
		}
		e.ring[e.ringHead] = nil
		e.ringHead++
		if e.ringHead == len(e.ring) {
			e.ring = e.ring[:0]
			e.ringHead = 0
		}
		e.recycle(ev)
	}
	return false
}

// NextEventAt returns the time of the earliest pending event. When the
// engine is drained it returns (0, false). Heap cancellation is eager
// and ringLive skips cancelled ring entries, so the answer is exact.
func (e *Engine) NextEventAt() (Time, bool) {
	if e.ringLive() {
		return e.now, true
	}
	if len(e.events) > 0 {
		return e.events[0].at, true
	}
	return 0, false
}
