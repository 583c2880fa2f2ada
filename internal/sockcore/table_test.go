package sockcore

import "testing"

// TestTable: id 0 and ids never granted or already revoked resolve to
// nothing, a revoked id's slot is reused LIFO, and the footprint is the
// two backings' capacities.
func TestTable(t *testing.T) {
	var tab Table[int]
	a, b, c := new(int), new(int), new(int)
	if tab.Lookup(0) != nil || tab.Lookup(1) != nil {
		t.Fatal("an empty table resolved an id")
	}
	ia, ib := tab.Grant(a), tab.Grant(b)
	if ia != 1 || ib != 2 {
		t.Fatalf("first ids %d, %d; want 1, 2 (0 means no cookie)", ia, ib)
	}
	if tab.Lookup(0) != nil || tab.Lookup(3) != nil {
		t.Fatal("id 0 or an id past the table resolved")
	}
	if tab.Lookup(ia) != a || tab.Lookup(ib) != b {
		t.Fatal("granted ids do not resolve to their objects")
	}
	tab.Revoke(ia)
	tab.Revoke(ib)
	if tab.Lookup(ia) != nil || tab.Lookup(ib) != nil {
		t.Fatal("a revoked id still resolves")
	}
	tab.Revoke(0)
	tab.Revoke(9)
	if ic := tab.Grant(c); ic != ib {
		t.Fatalf("reuse granted id %d, want the last revoked %d", ic, ib)
	}
	if id := tab.Grant(a); id != ia {
		t.Fatalf("reuse granted id %d, want %d", id, ia)
	}
	if id := tab.Grant(b); id != 3 {
		t.Fatalf("a full table granted id %d, want a new slot 3", id)
	}
	if want := int64(cap(tab.slots))*8 + int64(cap(tab.free))*4; tab.Bytes() != want {
		t.Fatalf("footprint %d, want %d", tab.Bytes(), want)
	}

	var r Table[int]
	r.Reserve(100)
	if cap(r.slots) != 100 {
		t.Fatalf("reserved %d slots, want 100", cap(r.slots))
	}
	r.Reserve(500)
	if cap(r.slots) != 100 {
		t.Fatal("a second Reserve resized the table")
	}
}

// TestZeroAllocTable: a presized table grants, resolves and revokes
// without allocating.
func TestZeroAllocTable(t *testing.T) {
	var tab Table[int]
	tab.Reserve(64)
	v := new(int)
	ids := make([]uint64, 64)
	cycle := func() {
		for i := range ids {
			ids[i] = tab.Grant(v)
		}
		for _, id := range ids {
			if tab.Lookup(id) != v {
				t.Fatal("lookup missed")
			}
			tab.Revoke(id)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("grant/lookup/revoke allocates %.1f per cycle, want 0", allocs)
	}
}
