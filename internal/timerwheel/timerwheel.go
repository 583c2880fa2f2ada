// Package timerwheel implements the hierarchical timing wheel the IX
// dataplane uses for network timeouts such as TCP retransmissions (§4.2).
// It follows Varghese & Lauck: a stack of wheels where each higher level
// covers the full span of the one below, with timers cascading downward as
// time advances. The design is optimized for the common case in which most
// timers are cancelled before they expire (cancel is O(1) list unlink) and
// supports very high resolution timeouts — the default tick is 16 µs,
// which the paper notes matters for TCP incast recovery.
//
// Each slot is one pointer to the oldest of its timers, which form a
// circular doubly linked list through the timers themselves, so a
// four-level wheel of 256 slots a level is about 8 KiB however many
// cores own one. Timers in a slot fire, and cascade, oldest first: in
// the order they arrived in the slot. A caller that keeps many deadlines
// behind one timer can reserve each deadline's place in that order when
// it arises (Reserve) and put the timer there later (AddArgAt, ResetAt),
// so the one timer fires exactly where a timer per deadline would have.
//
// NextDeadline — which the dataplane calls at every run-to-completion
// quiescence point — is served by a lazy-deletion min-heap of deadlines
// maintained at Add/Transfer time: cancelled and fired timers are skimmed
// off the heap top when encountered, so the query is O(1) amortized even
// when thousands of timers share one wheel slot. Reset, the in-place
// re-arm, pushes nothing when the deadline moves later: the timer's entry
// stays behind as a lower bound and is re-keyed when it surfaces.
package timerwheel

import "time"

const (
	// Levels is the number of wheels in the hierarchy.
	Levels = 4
	// Slots is the number of slots per wheel; with a 16 µs tick the
	// hierarchy spans 16 µs × 256⁴ ≈ 19 hours.
	Slots = 256

	// DefaultTick is the paper's 16 µs timer resolution.
	DefaultTick = 16 * time.Microsecond
)

// A Timer is a pending timeout. Timers are intrusive list nodes, and
// fired or cancelled timers return to a per-wheel free list, so the
// add/fire and add/cancel cycles are allocation-free — the
// per-retransmission-arming pattern of the TCP hot path. A timer that
// has fired or been cancelled belongs to the wheel again and must not
// be used by the caller.
type Timer struct {
	deadline   int64 // ns
	fn         func()
	argFn      func(any)
	arg        any
	next, prev *Timer
	// slot is the list the timer is pending in; nil once it has fired or
	// been cancelled.
	slot *slotList
	// wheel identifies the owning wheel while pending, so stale min-heap
	// entries from a Transfer are recognized as dead.
	wheel *Wheel
	// gen increments each time the timer dies (fire/cancel), so min-heap
	// entries from a previous life are recognized as dead even after the
	// timer is reused.
	gen uint32
	// order is the timer's place in its slot's firing order: its slot
	// arrival number, or the one Reserve handed out (see slotList).
	order uint32
}

// A slotList is one wheel slot: a pointer to the oldest of its timers,
// which form a circular list in arrival order (head.prev is the
// newest), or nil when the slot is empty. One word per slot keeps a
// Wheel's 1 024 slots at 8 KiB. Arrival numbers come from one counter
// per wheel, so the list is in ascending order; they wrap, and compare
// by their difference (no slot holds 2³¹ arrivals).
type slotList struct {
	head *Timer
}

// push appends t at the slot's tail.
func (s *slotList) push(t *Timer) {
	t.slot = s
	h := s.head
	if h == nil {
		t.next, t.prev = t, t
		s.head = t
		return
	}
	t.prev = h.prev
	t.next = h
	h.prev.next = t
	h.prev = t
}

// insert puts t at its order's place: after every timer of an earlier
// order, before every timer of a later one.
func (s *slotList) insert(t *Timer) {
	h := s.head
	if h == nil || int32(h.order-t.order) > 0 {
		s.push(t)
		s.head = t
		return
	}
	p := h.prev
	for int32(p.order-t.order) > 0 {
		p = p.prev
	}
	t.slot = s
	t.prev, t.next = p, p.next
	p.next.prev = t
	p.next = t
}

func (s *slotList) empty() bool { return s.head == nil }

// unlink removes t from its slot.
func unlink(t *Timer) {
	s := t.slot
	if t.next == t {
		s.head = nil
	} else {
		t.prev.next = t.next
		t.next.prev = t.prev
		if s.head == t {
			s.head = t.next
		}
	}
	t.next, t.prev, t.slot = nil, nil, nil
}

// minEntry is one lazy min-heap record: the deadline by value (so heap
// sifts never chase the timer pointer) plus the timer — and its
// generation at record time — it belonged to. An entry is live only when
// its timer is still pending on this wheel in the same generation and
// the deadlines match; a live timer's entry with an earlier deadline is
// a lower bound left by Reset.
type minEntry struct {
	deadline int64
	gen      uint32
	t        *Timer
}

// A Wheel is a hierarchical timing wheel. It is single-owner (one per
// elastic thread) and not safe for concurrent use, by design.
type Wheel struct {
	tick    int64 // ns per tick
	curTick int64 // ticks elapsed
	levels  [Levels][Slots]slotList
	count   int

	// minHeap tracks pending deadlines with lazy deletion: every Add or
	// Transfer-in pushes an entry; entries whose timer has fired, been
	// cancelled, moved wheels, or been reused are dropped when they
	// surface at the top.
	minHeap []minEntry

	// free recycles dead timers (allocation-free add/cancel churn).
	free []*Timer

	// arrivals numbers the timers arriving in slots (slotList).
	arrivals uint32
	// firing is the slot Advance is firing, nil outside fireSlot.
	firing *slotList

	// Stats for the cancel-dominated workload claim.
	Added     uint64
	Cancelled uint64
	Fired     uint64
	// Migration traffic (Transfer does not disturb the add/cancel stats).
	TransferredIn  uint64
	TransferredOut uint64
}

// New returns a wheel with the given tick resolution starting at time
// now (nanoseconds).
func New(tick time.Duration, now int64) *Wheel {
	if tick <= 0 {
		tick = DefaultTick
	}
	w := &Wheel{tick: int64(tick)}
	w.curTick = now / w.tick
	return w
}

// Len returns the number of pending timers.
func (w *Wheel) Len() int { return w.count }

// NextTickTime returns the virtual time of the next tick boundary — the
// earliest instant at which a deadline inside the current tick can fire
// (place never puts a timer in the current tick's slot).
func (w *Wheel) NextTickTime() int64 { return (w.curTick + 1) * w.tick }

// heapPush records a pending deadline.
func (w *Wheel) heapPush(t *Timer) {
	h := w.minHeap
	i := len(h)
	h = append(h, minEntry{deadline: t.deadline, gen: t.gen, t: t})
	for i > 0 {
		parent := (i - 1) >> 1
		if h[parent].deadline <= t.deadline {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = minEntry{deadline: t.deadline, gen: t.gen, t: t}
	w.minHeap = h
}

// heapPop removes the top entry.
func (w *Wheel) heapPop() {
	h := w.minHeap
	n := len(h) - 1
	last := h[n]
	h[n] = minEntry{}
	w.minHeap = h[:n]
	if n > 0 {
		w.heapReplaceTop(last)
	}
}

// heapReplaceTop puts e in place of the top entry and sifts it down.
func (w *Wheel) heapReplaceTop(e minEntry) {
	h := w.minHeap
	n := len(h)
	i := 0
	for {
		c := i<<1 + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].deadline < h[c].deadline {
			c++
		}
		if h[c].deadline >= e.deadline {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Add schedules fn to fire at absolute deadline ns. Deadlines at or before
// the current tick fire on the next Advance. The returned timer may be
// cancelled until it fires; once fired or cancelled it belongs to the
// wheel again and must not be touched.
func (w *Wheel) Add(deadline int64, fn func()) *Timer {
	t := w.get(deadline)
	t.fn = fn
	w.place(t)
	w.armed(t)
	return t
}

// get returns a timer for deadline, recycled from the free list when
// possible.
func (w *Wheel) get(deadline int64) *Timer {
	if n := len(w.free); n > 0 {
		t := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		t.deadline = deadline
		return t
	}
	return &Timer{deadline: deadline}
}

// armed accounts for a timer just placed.
func (w *Wheel) armed(t *Timer) {
	w.heapPush(t)
	w.count++
	w.Added++
}

// AddArg schedules fn(arg) to fire at absolute deadline ns. It is the
// closure-free variant of Add for per-object timers armed in bulk: a
// package-level fn plus a pointer arg costs nothing per arming, where a
// bound method value like c.onRTO allocates a two-word closure that
// lives as long as the timer — 48 bytes per connection across the
// three TCP timers at Fig. 4 populations. Same contract as Add
// otherwise. A pointer (or other pointer-shaped) arg does not allocate;
// scalar args box and lose the point.
func (w *Wheel) AddArg(deadline int64, fn func(any), arg any) *Timer {
	t := w.get(deadline)
	t.argFn, t.arg = fn, arg
	w.place(t)
	w.armed(t)
	return t
}

// Reset moves the pending timer t to a new deadline in place, keeping
// its callback: the re-arm a TCP connection performs on every segment it
// transmits. It counts as one cancel plus one add, and t lands at the
// tail of its new slot — exactly where Cancel followed by Add would put
// it, since that Add reuses the just-cancelled timer from the free list.
// It reports whether t was pending; a fired, cancelled or nil timer is
// left alone, and the caller adds a new one.
//
// The min-heap is touched only when the deadline moves earlier. A later
// deadline leaves t's entry behind as a lower bound, which NextDeadline
// re-keys when it surfaces, so the common re-arm pushes nothing and
// leaves no dead entry to skim.
//
//ix:hotpath
func (w *Wheel) Reset(t *Timer, deadline int64) bool {
	if t == nil || t.slot == nil {
		return false
	}
	unlink(t)
	earlier := deadline < t.deadline
	t.deadline = deadline
	w.place(t)
	if earlier {
		w.heapPush(t)
	}
	w.Cancelled++
	w.Added++
	return true
}

// recycle retires a dead timer into the free list, bumping its
// generation so stale min-heap entries referencing this life die.
func (w *Wheel) recycle(t *Timer) {
	t.gen++
	t.fn = nil
	t.argFn = nil
	t.arg = nil
	w.free = append(w.free, t)
}

// place inserts t into the correct level/slot for its deadline, as the
// slot's newest arrival.
func (w *Wheel) place(t *Timer) {
	t.wheel = w
	dt := t.deadline/w.tick - w.curTick
	if dt < 1 {
		dt = 1
	}
	tickAt := w.curTick + dt
	for l := 0; l < Levels; l++ {
		span := int64(1) << (8 * uint(l+1)) // ticks covered by levels 0..l
		if dt < span || l == Levels-1 {
			slot := int((tickAt >> (8 * uint(l))) & (Slots - 1))
			w.arrivals++
			t.order = w.arrivals
			w.levels[l][slot].push(t)
			return
		}
	}
}

// Reserve returns the place in deadline's slot that a timer added now
// would take, for AddArgAt or ResetAt to put a timer there later. It
// reports false when such a timer would not go straight to the lowest
// level: only there is a timer's place final, since a higher level's
// timers take new places as they cascade down.
//
//ix:hotpath
func (w *Wheel) Reserve(deadline int64) (uint32, bool) {
	if deadline/w.tick-w.curTick >= Slots {
		return 0, false
	}
	w.arrivals++
	return w.arrivals, true
}

// placeAt inserts t at its reserved place (t.order) in its deadline's
// lowest-level slot. A deadline in the tick being fired takes its place
// in that slot, still to fire in this Advance, as the timer reserving it
// would have. A place that cannot be kept — the deadline is past or out
// of the lowest level's reach — falls back to place.
func (w *Wheel) placeAt(t *Timer) {
	tickAt := t.deadline / w.tick
	s := &w.levels[0][tickAt&(Slots-1)]
	if dt := tickAt - w.curTick; dt >= Slots || dt < 0 || dt == 0 && s != w.firing {
		w.place(t)
		return
	}
	t.wheel = w
	s.insert(t)
}

// AddArgAt is AddArg for a timer that takes the place Reserve returned:
// it fires after the timers that arrived in its slot before the
// reservation and before those that arrived after it.
func (w *Wheel) AddArgAt(deadline int64, place uint32, fn func(any), arg any) *Timer {
	t := w.get(deadline)
	t.argFn, t.arg = fn, arg
	t.order = place
	w.placeAt(t)
	w.armed(t)
	return t
}

// ResetAt is Reset to a deadline and the place Reserve returned for it.
//
//ix:hotpath
func (w *Wheel) ResetAt(t *Timer, deadline int64, place uint32) bool {
	if t == nil || t.slot == nil {
		return false
	}
	unlink(t)
	earlier := deadline < t.deadline
	t.deadline = deadline
	t.order = place
	w.placeAt(t)
	if earlier {
		w.heapPush(t)
	}
	w.Cancelled++
	w.Added++
	return true
}

// Cancel removes t from the wheel; it reports whether the timer was still
// pending. Cancelling nil or an expired timer is a no-op. The min-heap
// entry is left behind and skimmed lazily; the timer itself returns to
// the free list and must not be used again.
func (w *Wheel) Cancel(t *Timer) bool {
	if t == nil || t.slot == nil {
		return false
	}
	unlink(t)
	w.count--
	w.Cancelled++
	w.recycle(t)
	return true
}

// Transfer moves a pending timer from w to dst, preserving its deadline
// and callback — the re-homing primitive behind control-plane flow-group
// migration: a migrated connection's retransmission, TIME_WAIT and
// delayed-ACK timers keep their original deadlines on the destination
// elastic thread's wheel. A deadline already in dst's past fires on dst's
// next Advance. Transferring a fired, cancelled or nil timer is a no-op;
// it does not count as a cancel on w nor an add on dst. Reports whether
// the timer moved.
func (w *Wheel) Transfer(t *Timer, dst *Wheel) bool {
	if t == nil || t.slot == nil || dst == nil || dst == w {
		return false
	}
	unlink(t)
	w.count--
	dst.place(t)
	dst.heapPush(t)
	dst.count++
	w.TransferredOut++
	dst.TransferredIn++
	return true
}

// Advance moves the wheel's clock to now (ns), firing every timer whose
// deadline has passed, in deadline order within a tick's resolution.
func (w *Wheel) Advance(now int64) {
	target := now / w.tick
	for w.curTick < target {
		if w.count == 0 {
			// Nothing pending: jump.
			w.curTick = target
			return
		}
		w.curTick++
		// Cascade when a lower wheel wraps.
		for l := 1; l < Levels; l++ {
			if w.curTick&((int64(1)<<(8*uint(l)))-1) != 0 {
				break
			}
			slot := (w.curTick >> (8 * uint(l))) & (Slots - 1)
			w.cascade(&w.levels[l][slot])
		}
		w.fireSlot(&w.levels[0][w.curTick&(Slots-1)])
	}
}

// cascade re-places every timer in s one level down.
func (w *Wheel) cascade(s *slotList) {
	for !s.empty() {
		t := s.head
		unlink(t)
		w.place(t)
	}
}

// fireSlot runs all timers in the current level-0 slot whose deadline is
// due (all of them, by construction). The timer is recycled before its
// callback runs, so a callback that re-arms reuses it immediately.
func (w *Wheel) fireSlot(s *slotList) {
	w.firing = s
	for !s.empty() {
		t := s.head
		unlink(t)
		w.count--
		w.Fired++
		fn, argFn, arg := t.fn, t.argFn, t.arg
		w.recycle(t)
		if argFn != nil {
			argFn(arg)
		} else {
			fn()
		}
	}
	w.firing = nil
}

// NextDeadline returns the earliest pending deadline in nanoseconds and
// true, or zero and false if no timers are pending. Dead heap entries
// (fired, cancelled, or transferred timers, or deadlines a Reset has
// moved earlier) surfacing at the top are discarded, and a lower bound
// left by Reset is re-keyed to its timer's deadline; each Add or Reset
// pays for at most one such step, so the query is O(1) amortized.
func (w *Wheel) NextDeadline() (int64, bool) {
	if w.count == 0 {
		// Nothing pending: every heap entry is stale. Truncate instead of
		// letting dead entries pile up across add/cancel churn (an
		// RTO-per-message workload adds and cancels without the heap top
		// ever surfacing otherwise).
		if len(w.minHeap) > 0 {
			for i := range w.minHeap {
				w.minHeap[i] = minEntry{}
			}
			w.minHeap = w.minHeap[:0]
		}
		return 0, false
	}
	for len(w.minHeap) > 0 {
		top := w.minHeap[0]
		if t := top.t; t.slot != nil && t.wheel == w && t.gen == top.gen {
			if top.deadline == t.deadline {
				return top.deadline, true
			}
			if top.deadline < t.deadline {
				w.heapReplaceTop(minEntry{deadline: t.deadline, gen: t.gen, t: t})
				continue
			}
		}
		w.heapPop()
	}
	return 0, false
}

// NextFireTime returns the earliest virtual instant at which a pending
// timer can actually fire, and whether one is pending. It differs from
// NextDeadline by accounting for tick quantization: a deadline at or
// before the current tick cannot fire until the wheel's next tick
// boundary, so — provided the wheel's clock is current — the returned
// time is always strictly in the future. OS models arm their idle
// wakeups from this, never from the raw deadline: arming at a deadline
// inside the current tick re-wakes at an instant where Advance cannot
// make progress, which spins an idle core at one virtual time (the
// timer-wake livelock family).
func (w *Wheel) NextFireTime() (int64, bool) {
	nd, ok := w.NextDeadline()
	if !ok {
		return 0, false
	}
	if next := w.NextTickTime(); nd < next {
		return next, true
	}
	return nd, true
}
