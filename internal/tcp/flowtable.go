package tcp

import "ix/internal/wire"

// flowTable is a stack's connection demux table: linear probing over a
// power-of-two array, load at most 3/4, deletion by backward shift (no
// tombstones). A slot is one word: the connection's arena slot in the
// low 24 bits and a tag, the top byte of the key's hash (never 0), above;
// 0 is empty. The key is read from the PCB only where the tag matches, so
// a miss reads no PCB and a hit, but for a 1-in-255 tag collision, one
// word and one PCB. The hash is a fixed, seedless mix: slot order, and
// every walk of the table, is a pure function of the keys inserted.
type flowTable struct {
	a     *arena
	slots []uint32
	n     int
}

// entry packs a tag and an arena slot into a table slot, and entryTag
// unpacks the tag.
func entry(tag uint8, slot uint32) uint32 { return uint32(tag)<<slotBits | slot }
func entryTag(e uint32) uint8             { return uint8(e >> slotBits) }

// connKey is a connection's 4-tuple from the local view. The protocol is
// always TCP, so the PCB stores these 12 B and Conn.Key rebuilds the
// wire.FlowKey.
type connKey struct {
	SrcIP, DstIP     wire.IPv4
	SrcPort, DstPort uint16
}

// flow returns the key as a wire.FlowKey.
func (k connKey) flow() wire.FlowKey {
	return wire.FlowKey{SrcIP: k.SrcIP, DstIP: k.DstIP, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: wire.ProtoTCP}
}

// minFlowSlots is the smallest table (an unsized stack's first backing).
const minFlowSlots = 8

// newFlowTable returns a table over the PCBs of a that holds expected
// connections without growing.
func newFlowTable(a *arena, expected int) flowTable {
	n := minFlowSlots
	for n*3 < expected*4 {
		n <<= 1
	}
	return flowTable{a: a, slots: make([]uint32, n)}
}

// hashFlow mixes the 4-tuple. The population it must spread is
// adversarially regular — one server address and port against
// sequential client ports — so both words pass through multiply-fold
// rounds before the low bits are used.
//
//ix:hotpath
func hashFlow(k connKey) uint64 {
	h := uint64(k.SrcIP)<<32 | uint64(k.DstIP)
	h ^= (uint64(k.SrcPort)<<16 | uint64(k.DstPort)) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return h
}

// hashTag is the tag a key with hash h carries: its top byte, moved off
// 0 (the empty slot's tag). The slot index uses the low bits, so the two
// are independent.
//
//ix:hotpath
func hashTag(h uint64) uint8 {
	if tag := uint8(h >> 56); tag != 0 {
		return tag
	}
	return 1
}

// get returns the connection with key k, or nil. The load bound
// guarantees an empty slot, so the probe always terminates.
//
//ix:hotpath
func (t *flowTable) get(k connKey) *Conn {
	h := hashFlow(k)
	tag := hashTag(h)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return nil
		}
		if entryTag(e) == tag {
			if c := t.a.at(e & slotMask); c.key == k {
				return c
			}
		}
	}
}

// put inserts c under c.key, replacing an entry with the same key.
//
//ix:hotpath
func (t *flowTable) put(c *Conn) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	h := hashFlow(c.key)
	tag := hashTag(h)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			t.slots[i] = entry(tag, c.id.Slot())
			t.n++
			return
		}
		if entryTag(e) == tag && t.a.at(e&slotMask).key == c.key {
			t.slots[i] = entry(tag, c.id.Slot())
			return
		}
	}
}

// del removes the entry with key k, if any, then closes the hole by
// shifting back every later member of the probe cluster that may
// legally occupy it (its home slot is not past the hole).
//
//ix:hotpath
func (t *flowTable) del(k connKey) {
	h := hashFlow(k)
	tag := hashTag(h)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return
		}
		if entryTag(e) == tag && t.a.at(e&slotMask).key == k {
			break
		}
	}
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		e := t.slots[j]
		if home := hashFlow(t.a.at(e&slotMask).key) & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i] = e
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
}

// grow doubles the table, reinserting in slot order (deterministic).
func (t *flowTable) grow() {
	old := t.slots
	t.slots = make([]uint32, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := hashFlow(t.a.at(e&slotMask).key) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}
