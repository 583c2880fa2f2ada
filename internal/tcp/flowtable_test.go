package tcp

import (
	"math/rand"
	"testing"
	"unsafe"

	"ix/internal/wire"
)

// tableKey builds the i-th key of a small, deliberately regular key
// space: one server address and port against sequential client ports
// from a handful of client addresses — the population shape the table
// actually serves.
func tableKey(i int) connKey {
	return connKey{
		SrcIP: wire.Addr4(10, 0, 0, 1), DstIP: wire.Addr4(10, 0, 1, byte(i>>12)),
		SrcPort: 80, DstPort: uint16(1024 + i&0xfff),
	}
}

// checkTable verifies the table against the oracle: same population,
// every member reachable by its key, the slot invariant — a live slot
// names a PCB of the arena whose key's tag it carries, an empty slot is
// the zero word — and the probe invariant — no empty slot between a
// member's home and where it sits (what backward-shift deletion must
// preserve, including across the wrap).
func checkTable(t testing.TB, tab *flowTable, oracle map[connKey]*Conn) {
	t.Helper()
	if tab.n != len(oracle) {
		t.Fatalf("table holds %d, oracle %d", tab.n, len(oracle))
	}
	if tab.n*4 > len(tab.slots)*3 {
		t.Fatalf("load %d/%d exceeds 3/4", tab.n, len(tab.slots))
	}
	mask := uint64(len(tab.slots) - 1)
	live := 0
	for i, e := range tab.slots {
		if e == 0 {
			continue
		}
		live++
		c := tab.a.at(e & slotMask)
		if c.id.Slot() != e&slotMask {
			t.Fatalf("slot %d names arena slot %d, whose PCB is %v", i, e&slotMask, c.id)
		}
		if want := hashTag(hashFlow(c.key)); entryTag(e) != want {
			t.Fatalf("slot %d of %v has tag %#x, its key's is %#x", i, c.key, entryTag(e), want)
		}
		if oracle[c.key] != c {
			t.Fatalf("slot %d holds %v, not the oracle's entry", i, c.key)
		}
		for j := hashFlow(c.key) & mask; j != uint64(i); j = (j + 1) & mask {
			if tab.slots[j] == 0 {
				t.Fatalf("hole at %d between home and slot %d of %v", j, i, c.key)
			}
		}
	}
	if live != tab.n {
		t.Fatalf("%d live slots, count says %d", live, tab.n)
	}
	for k, c := range oracle {
		if tab.get(k) != c {
			t.Fatalf("get(%v) misses", k)
		}
	}
}

// newTestTable returns a table over an arena of its own, presized for
// expected connections.
func newTestTable(expected int) flowTable { return newFlowTable(&arena{}, expected) }

// applyTableOp runs one put/get/del step on both the table and the
// oracle and cross-checks the observable result. A put takes a fresh PCB
// from the arena, and a PCB the table no longer names goes back to it.
func applyTableOp(t testing.TB, tab *flowTable, oracle map[connKey]*Conn, op, id int) {
	k := tableKey(id)
	switch op % 3 {
	case 0:
		c := tab.a.alloc()
		c.key = k
		tab.put(c)
		if old := oracle[k]; old != nil {
			tab.a.release(old)
		}
		oracle[k] = c
	case 1:
		if got, want := tab.get(k), oracle[k]; got != want {
			t.Fatalf("get(%v) = %p, oracle %p", k, got, want)
		}
	case 2:
		tab.del(k)
		if old := oracle[k]; old != nil {
			tab.a.release(old)
		}
		delete(oracle, k)
		if tab.get(k) != nil {
			t.Fatalf("get(%v) finds a deleted key", k)
		}
	}
}

// TestFlowTableOracle drives the table against a Go map over 240k
// random steps: a key space small enough that deletes hit and deleted
// keys come back, phases that fill the table to its load bound and
// drain it again, starting from the smallest backing so growth runs
// repeatedly and clusters wrap the array's end at every size.
func TestFlowTableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20140611))
	tab := newTestTable(0)
	oracle := map[connKey]*Conn{}
	const steps = 240_000
	for i := 0; i < steps; i++ {
		space := 1 << (4 + uint(i/30_000)) // 16 … 2048 keys
		op := rng.Intn(3)
		if phase := i / 5_000 % 4; phase == 0 {
			op = 0 // fill burst
		} else if phase == 2 && op == 0 {
			op = 2 // drain burst
		}
		applyTableOp(t, &tab, oracle, op, rng.Intn(space))
		if i%997 == 0 {
			checkTable(t, &tab, oracle)
		}
	}
	checkTable(t, &tab, oracle)
}

// TestFlowTableMissReadsOnlyTags: a probe whose tag matches no slot
// reads no Conn — only table words. Every stored Conn's key is
// overwritten with the probe key, so a get that compared keys on a tag
// mismatch would return one of them; a get that reads only the words'
// tags returns nil. The stored tags stay those of the original keys, and
// the probe starts at a live slot and walks a cluster of them.
func TestFlowTableMissReadsOnlyTags(t *testing.T) {
	tab := newTestTable(64)
	var conns []*Conn
	for i := 0; i < 40; i++ {
		c := tab.a.alloc()
		c.key = tableKey(i)
		tab.put(c)
		conns = append(conns, c)
	}
	present := map[uint8]bool{}
	for _, e := range tab.slots {
		present[entryTag(e)] = true
	}
	mask := uint64(len(tab.slots) - 1)
	var probe connKey
	found := false
	for i := 1000; i < 1_000_000 && !found; i++ {
		probe = tableKey(i)
		h := hashFlow(probe)
		found = !present[hashTag(h)] && tab.slots[h&mask] != 0 && tab.slots[(h+1)&mask] != 0
	}
	if !found {
		t.Fatal("no probe key with an unused tag whose home starts a cluster")
	}
	for _, c := range conns {
		c.key = probe
	}
	if c := tab.get(probe); c != nil {
		t.Fatalf("get returned a Conn whose slot tag does not match the probe's")
	}
}

// TestFlowTableSlotPacking: a table slot is one word, the tag in its top
// byte and the arena slot in the low 24 bits. Every tag packs beside the
// largest slot a ConnID can name without either bleeding into the other,
// no packed live entry is the empty word, and the arena refuses to hand
// out a block that would cross the 24-bit limit.
func TestFlowTableSlotPacking(t *testing.T) {
	if got := unsafe.Sizeof(flowTable{}.slots[0]); got != 4 {
		t.Fatalf("a table slot is %d bytes, want 4", got)
	}
	for tag := 1; tag < 256; tag++ {
		for _, slot := range []uint32{0, 1, 1 << 23, slotMask} {
			e := entry(uint8(tag), slot)
			if e == 0 || entryTag(e) != uint8(tag) || e&slotMask != slot {
				t.Fatalf("entry(%#x, %#x) = %#x unpacks to tag %#x slot %#x", tag, slot, e, entryTag(e), e&slotMask)
			}
		}
	}
	id := ConnID(0xff<<slotBits | slotMask)
	if id.Slot() != slotMask || id.gen() != 0xff {
		t.Fatalf("ConnID %#x: slot %#x gen %#x", uint32(id), id.Slot(), id.gen())
	}
	// The last block the arena may add ends at or below 2^24 slots.
	blk, off := locate(slotMask)
	if blk < growBlocks || off >= maxBlock {
		t.Fatalf("locate(%#x) = block %d offset %d", slotMask, blk, off)
	}
	a := &arena{next: slotMask + 1 - maxBlock/2}
	a.next -= a.next % maxBlock
	for {
		if _, off := locate(a.next); off == 0 {
			break
		}
		a.next++
	}
	defer func() {
		if recover() != errArenaFull {
			t.Fatal("an arena at the 24-bit limit handed out a slot past it")
		}
	}()
	a.alloc()
}

// TestFlowTableWrapCluster pins the wrap-around case directly: keys
// whose home is the last slot form a cluster that spills into slots
// 0, 1, …; deleting members in every order must leave the rest
// reachable, and a deleted key must reinsert cleanly.
func TestFlowTableWrapCluster(t *testing.T) {
	const slots = 16
	var ids []int
	for i := 0; len(ids) < 5; i++ {
		if hashFlow(tableKey(i))&(slots-1) == slots-1 {
			ids = append(ids, i)
		}
	}
	for victim := range ids {
		tab := newFlowTable(&arena{}, slots*3/4)
		if len(tab.slots) != slots {
			t.Fatalf("presize gave %d slots, want %d", len(tab.slots), slots)
		}
		oracle := map[connKey]*Conn{}
		for _, id := range ids {
			applyTableOp(t, &tab, oracle, 0, id)
		}
		if tab.slots[0] == 0 || tab.slots[slots-1] == 0 {
			t.Fatal("cluster does not span the wrap")
		}
		applyTableOp(t, &tab, oracle, 2, ids[victim])
		checkTable(t, &tab, oracle)
		applyTableOp(t, &tab, oracle, 0, ids[victim])
		checkTable(t, &tab, oracle)
	}
}

// FuzzFlowTable decodes put/get/del steps from the input (one byte of
// opcode, two of key id per step) and holds the table to the oracle
// after every input. The checked-in corpus under testdata/fuzz replays
// as an ordinary test.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 2, 0, 1, 1, 0, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		tab := newTestTable(0)
		oracle := map[connKey]*Conn{}
		for ; len(in) >= 3; in = in[3:] {
			applyTableOp(t, &tab, oracle, int(in[0]), int(in[1])<<8|int(in[2]))
		}
		checkTable(t, &tab, oracle)
	})
}

// TestZeroAllocFlowTable: inserts into a presized table, lookups and
// deletes allocate nothing — the table's share of the establishment
// fast path's one-allocation-per-connection contract.
func TestZeroAllocFlowTable(t *testing.T) {
	const n = 1000
	tab := newTestTable(n)
	conns := make([]*Conn, n)
	for i := range conns {
		conns[i] = tab.a.alloc()
		conns[i].key = tableKey(i)
	}
	slots := len(tab.slots)
	allocs := testing.AllocsPerRun(20, func() {
		for _, c := range conns {
			tab.put(c)
		}
		for _, c := range conns {
			if tab.get(c.key) != c {
				t.Fatal("lookup missed")
			}
		}
		for _, c := range conns {
			tab.del(c.key)
		}
	})
	if allocs != 0 {
		t.Fatalf("presized table cycle allocates %.1f, want 0", allocs)
	}
	if len(tab.slots) != slots || tab.n != 0 {
		t.Fatalf("table grew to %d slots (n=%d) within its presized population", len(tab.slots), tab.n)
	}
}
