package tcp

import (
	"runtime"
	"testing"

	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// staleOps are the calls an id's holder applies to its connection.
var staleOps = []struct {
	name string
	do   func(*Conn)
}{
	{"Sendv", func(c *Conn) { c.Sendv([][]byte{[]byte("x")}, nil) }},
	{"Close", (*Conn).Close},
	{"Abort", (*Conn).Abort},
	{"RecvDone", func(c *Conn) { c.RecvDone(1) }},
}

// TestStaleIDRefused: an id outlives its connection once the slot is
// freed and handed to a new connection. Resolving it for any of a
// holder's calls panics in a test binary; outside one it counts in
// StaleIDs and resolves to nil. Either way the slot's new connection is
// untouched.
func TestStaleIDRefused(t *testing.T) {
	n := newTestNet(t, nil)
	_, s := n.open(t, 80)
	old := s.ID()
	s.Abort()
	n.step()
	_, s2 := n.open(t, 81)
	if s2.ID().Slot() != old.Slot() || s2.ID() == old {
		t.Fatalf("the new connection is %#x, want slot %d reused under a new generation (old %#x)", s2.ID(), old.Slot(), old)
	}
	st := n.b.stack
	for _, op := range staleOps {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s through a stale id did not panic", op.name)
				}
			}()
			op.do(st.Conn(old))
		}()
	}
	panicOnStale = false
	defer func() { panicOnStale = true }()
	for range staleOps {
		if c := st.Conn(old); c != nil {
			t.Fatal("a stale id resolved outside a test binary")
		}
	}
	if st.StaleIDs != uint64(len(staleOps)) {
		t.Fatalf("StaleIDs = %d, want %d", st.StaleIDs, len(staleOps))
	}
	if s2.State() != StateEstablished || st.Conn(s2.ID()) != s2 {
		t.Fatalf("the slot's new connection is %v", s2.State())
	}
}

// TestMigrateLeavesNoLiveID: Migrate copies the PCB into the destination
// arena and frees its source slot, so the source holds no live id and
// the old one is stale.
func TestMigrateLeavesNoLiveID(t *testing.T) {
	n := newTestNet(t, nil)
	_, s := n.open(t, 80)
	old, key := s.ID(), s.Key()
	dst := NewStack(Config{
		LocalIP: n.b.ip,
		Now:     func() int64 { return n.now },
		Wheel:   timerwheel.New(timerwheel.DefaultTick, n.now),
		Output:  func(*Conn, *wire.TCPHeader, [][]byte) {},
		Events:  n.b,
	})
	id := n.b.stack.Migrate(old, dst)
	a := &n.b.stack.arena
	if live := int(a.next) - len(a.blocks) - len(a.free); live != 0 || a.lookup(old) != nil {
		t.Fatalf("source arena holds %d live slots (old id resolves: %v) after the move", live, a.lookup(old) != nil)
	}
	if c := dst.Conn(id); c == nil || c.State() != StateEstablished || c.Key() != key {
		t.Fatal("the destination does not hold the migrated connection")
	}
}

// TestArenaFootprintMatchesHeap: the arena's memprobe charge — whole
// blocks with their headers and spare slots, the generation bytes and
// the lists — is what the Go heap holds for it: the blocks fill their
// size classes exactly. It comes to about 65 B a connection.
func TestArenaFootprintMatchesHeap(t *testing.T) {
	var now int64
	s := quietStack(&now, nil)
	const n = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		s.arena.alloc()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	charge := s.arena.bytes()
	if d := heap - charge; d < -charge/100 || d > charge/100 {
		t.Fatalf("arena charges %d B, the heap grew %d B", charge, heap)
	}
	if per := float64(charge) / n; per < 64 || per > 66.5 {
		t.Fatalf("arena charges %.1f B a connection, want 64–66.5", per)
	}
	runtime.KeepAlive(s)
}

// FuzzArena decodes alloc and release steps from the input (an even
// byte allocates, an odd one releases a live connection it picks) and
// holds the arena to an oracle of live ids: each alloc hands out an id
// not live, a released id stops resolving, and at the end each live id
// resolves to its own PCB, which names the arena's stack through its
// block header, while no released id resolves unless its slot's
// generation has come round to it again.
func FuzzArena(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 3, 0, 0})
	f.Add(make([]byte, 600))
	f.Fuzz(func(t *testing.T, in []byte) {
		s := &Stack{}
		a := &arena{owner: s}
		var live, stale []ConnID
		mark := map[ConnID]uint16{}
		for i, op := range in {
			if op%2 == 0 || len(live) == 0 {
				c := a.alloc()
				if _, dup := mark[c.id]; dup || c.id == 0 {
					t.Fatalf("step %d: alloc handed out live or zero id %#x", i, c.id)
				}
				c.key.SrcPort, c.state = uint16(i), StateEstablished
				mark[c.id] = uint16(i)
				live = append(live, c.id)
				continue
			}
			k := int(op>>1) % len(live)
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			delete(mark, id)
			a.release(a.lookup(id))
			if a.lookup(id) != nil {
				t.Fatalf("step %d: released id %#x still resolves", i, id)
			}
			stale = append(stale, id)
		}
		for _, id := range live {
			c := a.lookup(id)
			if c == nil || c.id != id || c.key.SrcPort != mark[id] || c.stack() != s {
				t.Fatalf("live id %#x resolves to %+v", id, c)
			}
		}
		for _, id := range stale {
			if _, again := mark[id]; !again && a.lookup(id) != nil {
				t.Fatalf("released id %#x still resolves", id)
			}
		}
	})
}
