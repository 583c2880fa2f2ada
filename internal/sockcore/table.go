package sockcore

import "unsafe"

// Table maps the compact ids an engine carries per connection (its
// cookie) back to the objects they name, so the engine holds 8 bytes and
// no interface box for the garbage collector to chase. Ids are slot
// index + 1, so 0 keeps its "no cookie" meaning; freed slots recycle
// LIFO, for cache locality and bounded growth.
type Table[T any] struct {
	slots []*T
	free  []uint32
}

// Reserve presizes an empty table for n entries (n ≤ 0: grow on demand).
func (t *Table[T]) Reserve(n int) {
	if n > 0 && cap(t.slots) == 0 {
		t.slots = make([]*T, 0, n)
	}
}

// Grant registers v and returns its id.
//
//ix:hotpath
func (t *Table[T]) Grant(v *T) uint64 {
	if n := len(t.free); n > 0 {
		idx := t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[idx] = v
		return uint64(idx) + 1
	}
	t.slots = append(t.slots, v)
	return uint64(len(t.slots))
}

// Lookup resolves an id; 0 and revoked ids return nil.
//
//ix:hotpath
func (t *Table[T]) Lookup(id uint64) *T {
	if id == 0 || id > uint64(len(t.slots)) {
		return nil
	}
	return t.slots[id-1]
}

// Revoke clears the slot and frees the id for reuse.
//
//ix:hotpath
func (t *Table[T]) Revoke(id uint64) {
	if id == 0 || id > uint64(len(t.slots)) {
		return
	}
	t.slots[id-1] = nil
	t.free = append(t.free, uint32(id-1))
}

// Each calls fn for every registered entry, in slot order.
func (t *Table[T]) Each(fn func(*T)) {
	for _, v := range t.slots {
		if v != nil {
			fn(v)
		}
	}
}

// Bytes is the table's memprobe charge: its slot and free-list backings.
func (t *Table[T]) Bytes() int64 {
	return int64(cap(t.slots))*int64(unsafe.Sizeof((*T)(nil))) + int64(cap(t.free))*4
}
