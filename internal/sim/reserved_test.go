package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestReservedSeqOrder: events queued under a reserved sequence number —
// some in the step that reserved them (some due that very instant,
// between ring events with smaller and larger seqs), some a step later —
// interleave with Call, At and Cancel at colliding instants, and the
// engine runs everything exactly in the (at, seq) order of what was
// scheduled and not cancelled.
func TestReservedSeqOrder(t *testing.T) {
	type item struct {
		at  Time
		seq uint64
		id  int
	}
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(25))
	var scheduled []item // everything that must run, with its key
	var ran []int
	cancelled := map[int]bool{}
	fired := map[int]bool{}
	nextID := 0
	newID := func() int { nextID++; return nextID }
	record := func(a any) { id := a.(int); fired[id] = true; ran = append(ran, id) }

	type reserved struct {
		item
		due Time // the driver step that queues it
	}
	var deferred []reserved
	type armed struct {
		ev *Event
		id int
	}
	var live []armed

	const step, lastStep = 10, 400 * 10
	var drive func(any)
	drive = func(a any) {
		record(a)
		now := e.Now()
		// Queue what the previous step reserved for this one.
		rest := deferred[:0]
		for _, r := range deferred {
			if r.due == now {
				e.CallReserved(r.at, r.seq, record, r.id)
			} else {
				rest = append(rest, r)
			}
		}
		deferred = rest
		for op := 0; op < 12; op++ {
			at := now + Time(step*rng.Intn(3)) // collide on a 10 ns grid, now included
			id := newID()
			switch rng.Intn(5) {
			case 0: // reserve and queue at once
				seq := e.ReserveSeq()
				e.CallReserved(at, seq, record, id)
				scheduled = append(scheduled, item{at, seq, id})
			case 1: // reserve now, queue at the next step (before its key is reached)
				if now >= lastStep {
					continue // no next step
				}
				seq := e.ReserveSeq()
				at += 2 * step
				deferred = append(deferred, reserved{item{at, seq, id}, now + step})
				scheduled = append(scheduled, item{at, seq, id})
			case 2:
				e.Call(at, record, id)
				scheduled = append(scheduled, item{at, e.seq, id})
			case 3:
				ev := e.At(at, func() { record(id) })
				scheduled = append(scheduled, item{at, ev.seq, id})
				live = append(live, armed{ev, id})
			case 4: // cancel an armed At that has not fired
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				if a := live[i]; !fired[a.id] && !cancelled[a.id] {
					e.Cancel(a.ev)
					cancelled[a.id] = true
				}
				live = slices.Delete(live, i, i+1)
			}
		}
		if now < lastStep {
			id := newID()
			e.Call(now+step, drive, id)
			scheduled = append(scheduled, item{now + step, e.seq, id})
		}
	}
	id := newID()
	e.Call(0, drive, id)
	scheduled = append(scheduled, item{0, e.seq, id})
	e.Run()

	var want []int
	slices.SortFunc(scheduled, func(a, b item) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	for _, it := range scheduled {
		if !cancelled[it.id] {
			want = append(want, it.id)
		}
	}
	if !slices.Equal(ran, want) {
		for i := range min(len(ran), len(want)) {
			if ran[i] != want[i] {
				t.Fatalf("event %d of %d: ran id %d, the (at, seq) order runs id %d", i, len(want), ran[i], want[i])
			}
		}
		t.Fatalf("ran %d events, the (at, seq) order has %d", len(ran), len(want))
	}
}
