package timerwheel

import (
	"slices"
	"sort"
	"testing"
)

// wheelPair is two wheels a timer can move between with Transfer.
type wheelPair [2]*Wheel

func newWheelPair() wheelPair {
	return wheelPair{New(DefaultTick, 0), New(DefaultTick, 0)}
}

// oracleTimer is the reference model's view of one pending timer.
type oracleTimer struct {
	id       int
	deadline int64
	wheel    int   // 0 or 1
	fireTick int64 // its deadline's tick, or the tick after the one it was placed at
	// reserved marks a deadline whose place was reserved on wheel 0: the
	// system under test queues it behind its carrier timer, the reference
	// gave it a timer of its own at the reservation.
	reserved bool
}

// entry is a reserved deadline queued on the system under test.
type entry struct {
	id       int
	deadline int64
	place    uint32
}

// wheelFuzz drives one op sequence through two systems side by side,
// against a sorted-slice oracle of pending timers. The system under test
// is a pair of wheels re-armed with Reset, whose reserved deadlines wait
// in a queue served by one carrier timer on wheel 0, kept with AddArgAt
// and ResetAt at the first entry's reserved place and moved on as it
// fires. The reference is a pair re-armed with Cancel then AddArg, which
// gives each reserved deadline a timer of its own when it is reserved.
type wheelFuzz struct {
	t       *testing.T
	now     int64
	sut     wheelPair
	ref     wheelPair
	sutT    map[int]*Timer
	refT    map[int]*Timer
	live    []*oracleTimer // sorted by id
	nextID  int
	sutLog  []int
	refLog  []int
	curTick [2]int64
	// entries are the queued reserved deadlines, in reservation order;
	// carrier is the timer kept on the first to fire.
	entries []entry
	carrier *Timer
	// skew is wheel 0's Added and Cancelled counts under test minus the
	// reference's: the two count the carrier's and the reserved
	// deadlines' timers differently.
	skew [2]int64
}

func newWheelFuzz(t *testing.T) *wheelFuzz {
	return &wheelFuzz{
		t: t, sut: newWheelPair(), ref: newWheelPair(),
		sutT: map[int]*Timer{}, refT: map[int]*Timer{},
	}
}

func (f *wheelFuzz) arm(w *Wheel, log *[]int, id int, deadline int64) *Timer {
	return w.AddArg(deadline, func(a any) { *log = append(*log, a.(int)) }, id)
}

// fireTick is the tick a timer placed now on wheel i fires at.
func (f *wheelFuzz) fireTick(i int, deadline int64) int64 {
	return max(deadline/int64(DefaultTick), f.curTick[i]+1)
}

func (f *wheelFuzz) newID() int {
	f.nextID++
	return f.nextID - 1
}

func (f *wheelFuzz) add(deadline int64) {
	id := f.newID()
	f.sutT[id] = f.arm(f.sut[0], &f.sutLog, id, deadline)
	f.refT[id] = f.arm(f.ref[0], &f.refLog, id, deadline)
	f.live = append(f.live, &oracleTimer{id: id, deadline: deadline, fireTick: f.fireTick(0, deadline)})
}

// reserve queues deadline on wheel 0 at a reserved place, or adds a
// plain timer when the wheel keeps no place for it.
func (f *wheelFuzz) reserve(deadline int64) {
	place, ok := f.sut[0].Reserve(deadline)
	if !ok {
		f.add(deadline)
		return
	}
	id := f.newID()
	f.refT[id] = f.arm(f.ref[0], &f.refLog, id, deadline)
	f.skew[0]--
	f.live = append(f.live, &oracleTimer{id: id, deadline: deadline, fireTick: f.fireTick(0, deadline), reserved: true})
	f.entries = append(f.entries, entry{id: id, deadline: deadline, place: place})
	f.retime()
}

// first is the index of the entry that fires first: the earliest tick,
// and in it the earliest place (reservation order).
func (f *wheelFuzz) first() int {
	tick := int64(DefaultTick)
	best := -1
	for i, e := range f.entries {
		if best < 0 || e.deadline/tick < f.entries[best].deadline/tick {
			best = i
		}
	}
	return best
}

// retime puts the carrier on the first entry, or cancels it when the
// queue is empty.
func (f *wheelFuzz) retime() {
	w := f.sut[0]
	i := f.first()
	switch {
	case i < 0:
		if f.carrier != nil {
			w.Cancel(f.carrier)
			f.carrier = nil
			f.skew[1]++
		}
	case f.carrier == nil:
		f.carrier = w.AddArgAt(f.entries[i].deadline, f.entries[i].place, f.fireEntry, nil)
		f.skew[0]++
	default:
		if !w.ResetAt(f.carrier, f.entries[i].deadline, f.entries[i].place) {
			f.t.Fatal("ResetAt refused the pending carrier")
		}
		f.skew[0]++
		f.skew[1]++
	}
}

// fireEntry is the carrier's callback: the first entry fires, and the
// carrier moves on to the next — into the slot being fired when that
// one is due in the same tick.
func (f *wheelFuzz) fireEntry(any) {
	f.carrier = nil
	i := f.first()
	f.sutLog = append(f.sutLog, f.entries[i].id)
	f.entries = slices.Delete(f.entries, i, i+1)
	f.retime()
}

func (f *wheelFuzz) cancelEntry(o *oracleTimer) {
	if !f.ref[0].Cancel(f.refT[o.id]) {
		f.t.Fatalf("Cancel refused pending timer %d", o.id)
	}
	f.skew[1]--
	i := slices.IndexFunc(f.entries, func(e entry) bool { return e.id == o.id })
	f.entries = slices.Delete(f.entries, i, i+1)
	f.drop(o.id)
	f.retime()
}

func (f *wheelFuzz) reset(o *oracleTimer, deadline int64) {
	if !f.sut[o.wheel].Reset(f.sutT[o.id], deadline) {
		f.t.Fatalf("Reset refused pending timer %d", o.id)
	}
	rw := f.ref[o.wheel]
	rw.Cancel(f.refT[o.id])
	f.refT[o.id] = f.arm(rw, &f.refLog, o.id, deadline)
	o.deadline = deadline
	o.fireTick = f.fireTick(o.wheel, deadline)
}

func (f *wheelFuzz) cancel(o *oracleTimer) {
	if !f.sut[o.wheel].Cancel(f.sutT[o.id]) || !f.ref[o.wheel].Cancel(f.refT[o.id]) {
		f.t.Fatalf("Cancel refused pending timer %d", o.id)
	}
	f.drop(o.id)
}

func (f *wheelFuzz) transfer(o *oracleTimer) {
	to := 1 - o.wheel
	if !f.sut[o.wheel].Transfer(f.sutT[o.id], f.sut[to]) || !f.ref[o.wheel].Transfer(f.refT[o.id], f.ref[to]) {
		f.t.Fatalf("Transfer refused pending timer %d", o.id)
	}
	o.wheel = to
	o.fireTick = f.fireTick(to, o.deadline)
}

// index is where id is, or would be, in the id-sorted oracle.
func (f *wheelFuzz) index(id int) int {
	return sort.Search(len(f.live), func(i int) bool { return f.live[i].id >= id })
}

func (f *wheelFuzz) drop(id int) {
	i := f.index(id)
	f.live = slices.Delete(f.live, i, i+1)
	delete(f.sutT, id)
	delete(f.refT, id)
}

func (f *wheelFuzz) advance(to int64) {
	f.now = to
	target := to / int64(DefaultTick)
	f.sutLog, f.refLog = f.sutLog[:0], f.refLog[:0]
	for i := range f.sut {
		f.sut[i].Advance(to)
		f.ref[i].Advance(to)
		f.curTick[i] = max(f.curTick[i], target)
	}
	if !slices.Equal(f.sutLog, f.refLog) {
		f.t.Fatalf("advance to %d: wheels under test fired %v, reference wheels fired %v", to, f.sutLog, f.refLog)
	}
	// The oracle: nothing fires before its tick, and nothing more than a
	// tick after it. (A deadline on a level boundary's own tick is placed
	// by the cascade that reaches it, which can only place it one tick
	// on.) Each timer fires once.
	fired := map[int]bool{}
	for _, id := range f.sutLog {
		o := f.find(id)
		if o == nil || fired[id] {
			f.t.Fatalf("advance to %d: timer %d fired while not pending", to, id)
		}
		if o.fireTick > target {
			f.t.Fatalf("advance to %d: timer %d (deadline %d) fired before tick %d", to, id, o.deadline, o.fireTick)
		}
		fired[id] = true
	}
	for _, o := range f.live {
		if o.fireTick+1 <= target && !fired[o.id] {
			f.t.Fatalf("advance to %d: timer %d (deadline %d) still pending after tick %d", to, o.id, o.deadline, o.fireTick+1)
		}
	}
	for id := range fired {
		f.drop(id)
	}
}

func (f *wheelFuzz) find(id int) *oracleTimer {
	if i := f.index(id); i < len(f.live) && f.live[i].id == id {
		return f.live[i]
	}
	return nil
}

// check compares both systems' queries with the oracle.
func (f *wheelFuzz) check(op string) {
	for i := range f.sut {
		// The reference holds every pending timer; the system under test
		// holds the plain ones and the carrier.
		var pending [2]int
		var want [2]int64
		note := func(sys int, d int64) {
			if pending[sys] == 0 || d < want[sys] {
				want[sys] = d
			}
			pending[sys]++
		}
		for _, o := range f.live {
			if o.wheel == i {
				note(1, o.deadline)
				if !o.reserved {
					note(0, o.deadline)
				}
			}
		}
		if i == 0 && f.carrier != nil {
			note(0, f.entries[f.first()].deadline)
		}
		for sys, w := range []*Wheel{f.sut[i], f.ref[i]} {
			nd, ok := w.NextDeadline()
			if ok != (pending[sys] > 0) || nd != want[sys] {
				f.t.Fatalf("after %s: system %d wheel %d NextDeadline = %d,%v, oracle %d,%v", op, sys, i, nd, ok, want[sys], pending[sys] > 0)
			}
			ft, ok := w.NextFireTime()
			wantFt := max(want[sys], (f.curTick[i]+1)*int64(DefaultTick))
			if ok != (pending[sys] > 0) || (ok && ft != wantFt) {
				f.t.Fatalf("after %s: system %d wheel %d NextFireTime = %d,%v, oracle %d,%v", op, sys, i, ft, ok, wantFt, pending[sys] > 0)
			}
			if w.Len() != pending[sys] {
				f.t.Fatalf("after %s: system %d wheel %d holds %d timers, oracle %d", op, sys, i, w.Len(), pending[sys])
			}
		}
		s, r := f.sut[i], f.ref[i]
		var skew [2]int64
		if i == 0 {
			skew = f.skew
		}
		if int64(s.Added) != int64(r.Added)+skew[0] || int64(s.Cancelled) != int64(r.Cancelled)+skew[1] || s.Fired != r.Fired {
			f.t.Fatalf("after %s: wheel %d stats added/cancelled/fired %d/%d/%d, reference %d/%d/%d with skew %v",
				op, i, s.Added, s.Cancelled, s.Fired, r.Added, r.Cancelled, r.Fired, skew)
		}
	}
}

// span turns a fuzz byte into a time offset: mostly within a few ticks
// (same-slot and same-tick orderings), sometimes across wheel levels.
func span(b byte) int64 {
	tick := int64(DefaultTick)
	switch b >> 6 {
	case 0:
		return int64(b&63) * tick / 8 // sub-tick offsets
	case 1:
		return int64(b&63) * tick
	case 2:
		return int64(b&63) * tick * Slots / 4 // crosses level 0
	default:
		return int64(b&63) * tick * Slots * Slots / 16 // crosses level 1
	}
}

// maxFuzzOps bounds one input's operations, so a long input cannot make
// Advance walk millions of ticks.
const maxFuzzOps = 256

// FuzzWheel runs random AddArg / Reserve / Reset / Cancel / Transfer /
// Advance sequences. After every operation NextDeadline and
// NextFireTime must equal the sorted-slice oracle's, and every Advance
// must fire exactly the due timers, in the same order as wheels that
// re-arm with Cancel then AddArg and give each reserved deadline a timer
// of its own.
func FuzzWheel(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 2, 0, 5, 5, 100})
	f.Add([]byte{1, 70, 1, 70, 2, 1, 200, 2, 0, 3, 5, 130, 4, 0, 5, 250})
	// Two places reserved in one tick around a plain timer, then an
	// Advance to that tick: the carrier moves to the second inside the
	// tick being fired, and all three fire in it.
	f.Add([]byte{1, 2, 0, 20, 1, 5, 5, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fz := newWheelFuzz(t)
		for n := 0; len(ops) >= 2 && n < maxFuzzOps; n++ {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			pick := func() *oracleTimer {
				if len(fz.live) == 0 {
					return nil
				}
				return fz.live[int(arg)%len(fz.live)]
			}
			var name string
			switch op % 6 {
			case 0:
				// Deadlines from a little in the past to far ahead.
				fz.add(fz.now - int64(DefaultTick) + span(arg))
				name = "add"
			case 1:
				// Reserved places are for deadlines in a later tick.
				fz.reserve(fz.now + int64(DefaultTick) + span(arg))
				name = "reserve"
			case 2:
				o := pick()
				if o == nil || o.reserved || len(ops) == 0 {
					continue
				}
				d := fz.now - int64(DefaultTick) + span(ops[0])
				ops = ops[1:]
				fz.reset(o, d)
				name = "reset"
			case 3:
				if o := pick(); o != nil && o.reserved {
					fz.cancelEntry(o)
				} else if o != nil {
					fz.cancel(o)
				}
				name = "cancel"
			case 4:
				if o := pick(); o != nil && !o.reserved {
					fz.transfer(o)
				}
				name = "transfer"
			case 5:
				// At most a level-0 span per step: Advance walks every
				// tick while timers are pending.
				fz.advance(fz.now + span(min(arg, 0xbf)))
				name = "advance"
			}
			fz.check(name)
		}
		// Drain: everything left fires, in the reference order.
		last := fz.now
		for _, o := range fz.live {
			last = max(last, (o.fireTick+2)*int64(DefaultTick))
		}
		fz.advance(last)
		fz.check("drain")
		if len(fz.live) != 0 {
			t.Fatalf("%d timers never fired", len(fz.live))
		}
	})
}

// TestZeroAllocWheelReset: the per-segment RTO re-arm — move the pending
// timer later, then the quiescence query — allocates nothing and leaves
// no stale heap entries behind, unlike Cancel+AddArg, which pushes one per
// re-arm for the query to skim.
func TestZeroAllocWheelReset(t *testing.T) {
	w := New(DefaultTick, 0)
	now := int64(0)
	tm := w.AddArg(now+1_000_000, func(any) {}, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 5_000
		if !w.Reset(tm, now+1_000_000) {
			t.Fatal("Reset refused a pending timer")
		}
		if nd, ok := w.NextDeadline(); !ok || nd != now+1_000_000 {
			t.Fatalf("NextDeadline = %d,%v after Reset to %d", nd, ok, now+1_000_000)
		}
	})
	if allocs != 0 {
		t.Fatalf("reset churn allocates %.2f per op, want 0", allocs)
	}
	if len(w.minHeap) != 1 {
		t.Fatalf("heap holds %d entries for one pending timer", len(w.minHeap))
	}
	if w.Added != 1002 || w.Cancelled != 1001 {
		t.Fatalf("stats added=%d cancelled=%d: each Reset must count one cancel and one add", w.Added, w.Cancelled)
	}
}
