package timerwheel

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// call is the trampoline that arms a closure with AddArg.
func call(a any) { a.(func())() }

func TestFireInOrder(t *testing.T) {
	w := New(DefaultTick, 0)
	var fired []int
	w.AddArg(100_000, call, func() { fired = append(fired, 2) })
	w.AddArg(50_000, call, func() { fired = append(fired, 1) })
	w.AddArg(200_000, call, func() { fired = append(fired, 3) })
	w.Advance(300_000)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fire order = %v", fired)
	}
	if w.Len() != 0 {
		t.Fatalf("len = %d after firing all", w.Len())
	}
}

func TestCancel(t *testing.T) {
	w := New(DefaultTick, 0)
	fired := false
	tm := w.AddArg(100_000, call, func() { fired = true })
	if !w.Cancel(tm) {
		t.Fatal("cancel reported failure")
	}
	if w.Cancel(tm) {
		t.Fatal("second cancel reported success")
	}
	w.Advance(1_000_000)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if w.Cancelled != 1 {
		t.Fatalf("cancelled count = %d", w.Cancelled)
	}
}

func TestCascade(t *testing.T) {
	w := New(DefaultTick, 0)
	// A deadline several wheel-levels out.
	far := int64(DefaultTick) * Slots * 10
	fired := int64(0)
	w.AddArg(far, call, func() { fired = 1 })
	w.Advance(far - int64(DefaultTick))
	if fired != 0 {
		t.Fatal("fired early")
	}
	w.Advance(far + int64(DefaultTick))
	if fired != 1 {
		t.Fatal("did not fire after cascade")
	}
}

func TestLongJumpWithEmptyWheel(t *testing.T) {
	w := New(DefaultTick, 0)
	w.Advance(int64(time.Hour)) // must not loop for hours of ticks
	w.AddArg(int64(time.Hour)+50_000, call, func() {})
	if w.Len() != 1 {
		t.Fatal("timer lost after long jump")
	}
}

func TestNextDeadline(t *testing.T) {
	w := New(DefaultTick, 0)
	if _, ok := w.NextDeadline(); ok {
		t.Fatal("empty wheel reported a deadline")
	}
	w.AddArg(500_000, call, func() {})
	w.AddArg(100_000, call, func() {})
	nd, ok := w.NextDeadline()
	if !ok || nd != 100_000 {
		t.Fatalf("next deadline = %d, %v; want 100000", nd, ok)
	}
}

// TestNeverEarly: a timer never fires before its deadline (within one
// tick of quantization), across random deadlines and advance patterns.
func TestNeverEarly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := New(DefaultTick, 0)
		type rec struct{ deadline, firedAt int64 }
		var recs []*rec
		now := int64(0)
		for i := 0; i < 40; i++ {
			d := now + rng.Int63n(int64(DefaultTick)*Slots*3)
			r := &rec{deadline: d, firedAt: -1}
			recs = append(recs, r)
			w.AddArg(d, call, func() { r.firedAt = w.curTick * w.tick })
			now += rng.Int63n(int64(DefaultTick) * 50)
			w.Advance(now)
		}
		w.Advance(now + int64(DefaultTick)*Slots*4)
		for _, r := range recs {
			if r.firedAt < 0 {
				return false // never fired
			}
			if r.firedAt+int64(DefaultTick) < r.deadline {
				return false // fired early
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelDominatedWorkload exercises the paper's common case: most
// timers cancelled before expiry (TCP retransmission timers).
func TestCancelDominatedWorkload(t *testing.T) {
	w := New(DefaultTick, 0)
	rng := rand.New(rand.NewSource(7))
	var live []*Timer
	now := int64(0)
	firedCount := 0
	for i := 0; i < 10_000; i++ {
		tm := w.AddArg(now+int64(200*time.Microsecond), call, func() { firedCount++ })
		live = append(live, tm)
		if len(live) > 8 {
			// Cancel an old timer (ack arrived).
			idx := rng.Intn(len(live))
			w.Cancel(live[idx])
			live = append(live[:idx], live[idx+1:]...)
		}
		now += int64(10 * time.Microsecond)
		w.Advance(now)
	}
	if w.Cancelled < 8500 {
		t.Fatalf("cancelled = %d, want ≥8500", w.Cancelled)
	}
	if w.Fired+w.Cancelled+uint64(w.Len()) != w.Added {
		t.Fatalf("accounting: added=%d fired=%d cancelled=%d pending=%d",
			w.Added, w.Fired, w.Cancelled, w.Len())
	}
}

func TestFireOrderProperty(t *testing.T) {
	f := func(deadlines []uint32) bool {
		if len(deadlines) == 0 {
			return true
		}
		w := New(DefaultTick, 0)
		var fired []int64
		max := int64(0)
		for _, d := range deadlines {
			dl := int64(d % 100_000_000)
			if dl > max {
				max = dl
			}
			w.AddArg(dl, call, func() { fired = append(fired, w.curTick*w.tick) })
		}
		w.Advance(max + int64(DefaultTick)*2)
		if len(fired) != len(deadlines) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTransfer: a pending timer re-homes to another wheel with deadline
// and callback intact; fired/cancelled timers do not move.
func TestTransfer(t *testing.T) {
	src := New(DefaultTick, 0)
	dst := New(DefaultTick, 0)
	fired := 0
	tm := src.AddArg(100_000, call, func() { fired++ })
	if !src.Transfer(tm, dst) {
		t.Fatal("Transfer refused a pending timer")
	}
	if src.Len() != 0 || dst.Len() != 1 {
		t.Fatalf("counts after transfer: src=%d dst=%d", src.Len(), dst.Len())
	}
	// The source wheel advancing past the deadline must not fire it.
	src.Advance(200_000)
	if fired != 0 {
		t.Fatal("timer fired on the source wheel after transfer")
	}
	dst.Advance(200_000)
	if fired != 1 {
		t.Fatalf("timer did not fire on the destination wheel (fired=%d)", fired)
	}
	// Fired timers do not transfer.
	if src.Transfer(tm, dst) {
		t.Fatal("Transfer moved a fired timer")
	}
	// Cancelled timers do not transfer.
	tm2 := src.AddArg(300_000, call, func() {})
	src.Cancel(tm2)
	if src.Transfer(tm2, dst) {
		t.Fatal("Transfer moved a cancelled timer")
	}
	if src.TransferredOut != 1 || dst.TransferredIn != 1 {
		t.Fatalf("transfer stats: out=%d in=%d", src.TransferredOut, dst.TransferredIn)
	}
}

// TestTransferPastDeadline: a deadline already in the destination's past
// fires on its next Advance rather than being lost.
func TestTransferPastDeadline(t *testing.T) {
	src := New(DefaultTick, 0)
	dst := New(DefaultTick, 0)
	dst.Advance(500_000) // destination clock is ahead of the deadline
	fired := false
	tm := src.AddArg(100_000, call, func() { fired = true })
	src.Transfer(tm, dst)
	dst.Advance(600_000)
	if !fired {
		t.Fatal("past-deadline timer lost in transfer")
	}
}

// TestNextFireTimeNeverInCurrentTick: the fire-time query quantizes
// deadlines at or before the current tick up to the next tick boundary,
// so an OS model arming an idle wakeup from it can never spin at one
// virtual instant (the timer-wake livelock family).
func TestNextFireTimeNeverInCurrentTick(t *testing.T) {
	w := New(DefaultTick, 0)
	tick := int64(DefaultTick)
	w.Advance(10 * tick)

	// Deadline inside the current tick: fire time is the next boundary.
	tm := w.AddArg(10*tick+tick/2, call, func() {})
	ft, ok := w.NextFireTime()
	if !ok {
		t.Fatal("no fire time with a pending timer")
	}
	if ft != 11*tick {
		t.Fatalf("fire time = %d, want next boundary %d", ft, 11*tick)
	}
	if ft <= w.curTick*w.tick {
		t.Fatalf("fire time %d not after wheel now %d", ft, w.curTick*w.tick)
	}
	// And the timer really does fire when Advance crosses that boundary.
	fired := false
	w.Cancel(tm)
	w.AddArg(10*tick+tick/2, call, func() { fired = true })
	w.Advance(11 * tick)
	if !fired {
		t.Fatal("timer did not fire at the reported fire time")
	}

	// A deadline beyond the current tick is reported as-is.
	w.AddArg(20*tick+5, call, func() {})
	ft, _ = w.NextFireTime()
	if ft != 20*tick+5 {
		t.Fatalf("future deadline fire time = %d, want %d", ft, 20*tick+5)
	}

	// Empty wheel: no fire time.
	w2 := New(DefaultTick, 0)
	if _, ok := w2.NextFireTime(); ok {
		t.Fatal("fire time reported on an empty wheel")
	}
}

// TestTimerReuseGenerations: recycled timers must not resurrect stale
// min-heap entries — a cancelled timer's old deadline may not surface
// as NextDeadline after the timer object is reused with a later one.
func TestTimerReuseGenerations(t *testing.T) {
	w := New(DefaultTick, 0)
	early := w.AddArg(100_000, call, func() {})
	w.Cancel(early)
	// Reuses the recycled object with a later deadline.
	late := w.AddArg(900_000, call, func() {})
	if late != early {
		t.Skip("free list did not reuse the timer object")
	}
	nd, ok := w.NextDeadline()
	if !ok || nd != 900_000 {
		t.Fatalf("NextDeadline = %d,%v; stale entry resurrected (want 900000)", nd, ok)
	}
}

// TestZeroAllocAddCancelChurn: the RTO pattern — add, cancel, query —
// must not allocate once the free list and heap are warm, and the heap
// must not grow without bound when queries happen while idle.
func TestZeroAllocAddCancelChurn(t *testing.T) {
	w := New(DefaultTick, 0)
	now := int64(0)
	// Warm.
	tm := w.AddArg(now+1_000_000, call, func() {})
	w.Cancel(tm)
	w.NextDeadline()
	allocs := testing.AllocsPerRun(1000, func() {
		now += 50_000
		tm := w.AddArg(now+1_000_000, call, func() {})
		w.Cancel(tm)
		w.NextDeadline()
	})
	if allocs != 0 {
		t.Fatalf("add/cancel churn allocates %.2f per op, want 0", allocs)
	}
	if len(w.minHeap) != 0 {
		t.Fatalf("idle wheel retains %d stale heap entries", len(w.minHeap))
	}
}

// TestWheelSize pins a wheel's footprint: every elastic thread and every
// baseline core owns one, and its 1 024 slots are one pointer each.
func TestWheelSize(t *testing.T) {
	if got := unsafe.Sizeof(Wheel{}); got > 8704 {
		t.Fatalf("Wheel is %d bytes, budget 8.5 KiB", got)
	}
}

// TestSlotFiresInInsertionOrder: timers due in the same tick share a
// slot and fire in the order they were added, whatever their deadlines
// within the tick — with the slot's oldest, newest and a middle timer
// cancelled, and after the slot's timers cascade down from a higher
// level, where a timer added once the cascade has run lines up behind
// them.
func TestSlotFiresInInsertionOrder(t *testing.T) {
	tick := int64(DefaultTick)
	w := New(DefaultTick, 0)
	var fired []int
	add := func(id int, deadline int64) *Timer {
		return w.AddArg(deadline, call, func() { fired = append(fired, id) })
	}

	// Level 0: tick 6, deadlines out of insertion order.
	base := 6 * tick
	var tms []*Timer
	for i, off := range []int64{900, 0, 500, 300, 100, 700} {
		tms = append(tms, add(i, base+off))
	}
	w.Cancel(tms[0]) // oldest
	w.Cancel(tms[5]) // newest
	w.Cancel(tms[2]) // middle
	add(6, base)
	w.Advance(base + tick)
	if want := []int{1, 3, 4, 6}; !slices.Equal(fired, want) {
		t.Fatalf("level-0 slot fired %v, want %v", fired, want)
	}

	// Level 1: a tick 300 ticks out cascades into level 0 at tick 256.
	fired = nil
	far := 300 * tick
	tms = tms[:0]
	for i, off := range []int64{800, 0, 400, 200} {
		tms = append(tms, add(i, far+off))
	}
	w.Cancel(tms[0])
	w.Advance(256*tick + tick) // past the cascade
	if len(fired) != 0 {
		t.Fatalf("fired %v before the deadline", fired)
	}
	add(4, far+100)
	w.Advance(far + tick)
	if want := []int{1, 2, 3, 4}; !slices.Equal(fired, want) {
		t.Fatalf("cascaded slot fired %v, want %v", fired, want)
	}
	if w.Len() != 0 {
		t.Fatalf("%d timers still pending", w.Len())
	}
}

// TestReservedPlaceMatchesOwnTimer: deadlines kept in a FIFO behind one
// timer — each reserving its place when it arises, the timer kept on
// the first live one with AddArgAt or ResetAt and moved on as it fires —
// fire at the same instants and in the same order, among other timers
// sharing their ticks, as a timer per deadline. Deadlines arise in
// deadline order, several per tick, and some are cancelled, at the head
// and behind it.
func TestReservedPlaceMatchesOwnTimer(t *testing.T) {
	const rto = int64(time.Millisecond)
	tick := int64(DefaultTick)
	rng := rand.New(rand.NewSource(7))
	own, one := New(DefaultTick, 0), New(DefaultTick, 0)
	type entry struct {
		id       int
		deadline int64
		place    uint32
		live     bool
	}
	var gotOwn, gotOne []string
	var now int64
	fire := func(log *[]string, id int) { *log = append(*log, fmt.Sprintf("%d@%d", id, now)) }

	// The FIFO side: one timer kept on the first live entry.
	var q []*entry
	var qt *Timer
	var retime func()
	var onFire func(any)
	onFire = func(any) {
		qt = nil
		e := q[0]
		q = q[1:]
		e.live = false
		fire(&gotOne, e.id)
		retime()
	}
	retime = func() {
		for len(q) > 0 && !q[0].live {
			q = q[1:]
		}
		switch {
		case len(q) == 0:
			if qt != nil {
				one.Cancel(qt)
				qt = nil
			}
		case qt == nil || !one.ResetAt(qt, q[0].deadline, q[0].place):
			qt = one.AddArgAt(q[0].deadline, q[0].place, onFire, nil)
		}
	}
	ownTimers := map[int]*Timer{}
	for id := 0; now < 30*rto; id++ {
		now += rng.Int63n(3 * tick)
		own.Advance(now)
		one.Advance(now)
		switch r := rng.Intn(10); {
		case r < 5: // a queued deadline
			d := now + rto
			id := id
			ownTimers[id] = own.AddArg(d, func(any) { fire(&gotOwn, id) }, nil)
			p, ok := one.Reserve(d)
			if !ok {
				t.Fatal("deadline out of the lowest level's reach")
			}
			e := &entry{id: id, deadline: d, place: p, live: true}
			q = append(q, e)
			if qt == nil {
				qt = one.AddArgAt(d, p, onFire, nil)
			}
		case r < 8: // another timer, due in a tick the queue uses
			d := now + rto - rng.Int63n(4*tick)
			id := id
			own.AddArg(d, func(any) { fire(&gotOwn, id) }, nil)
			one.AddArg(d, func(any) { fire(&gotOne, id) }, nil)
		default: // cancel a queued deadline
			if len(q) == 0 {
				continue
			}
			e := q[rng.Intn(len(q))]
			if !e.live {
				continue
			}
			own.Cancel(ownTimers[e.id])
			e.live = false
			if e == q[0] {
				retime()
			}
		}
		ownAt, ownOK := own.NextFireTime()
		oneAt, oneOK := one.NextFireTime()
		if ownAt != oneAt || ownOK != oneOK || (own.Len() == 0) != (one.Len() == 0) {
			t.Fatalf("at %d: next fire %d,%v against %d,%v", now, oneAt, oneOK, ownAt, ownOK)
		}
	}
	now += 2 * rto
	own.Advance(now)
	one.Advance(now)
	if len(gotOwn) < 500 || !slices.Equal(gotOne, gotOwn) {
		t.Fatalf("one timer fired %d deadlines, a timer each %d; first difference at %d",
			len(gotOne), len(gotOwn), firstDiff(gotOne, gotOwn))
	}
}

func firstDiff(a, b []string) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
