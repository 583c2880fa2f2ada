package tcp

import "ix/internal/wire"

// flowTable is a stack's connection demux table: open addressing with
// linear probing over a power-of-two array of *Conn, load held at or
// below 3/4, deletion by backward shift (no tombstones, so a churning
// table never degrades). A slot is one pointer — the key is read from
// the Conn it points at — plus a one-byte tag in a separate array: the
// top byte of the key's hash, never 0, with 0 marking an empty slot. A
// probe walks the tags and dereferences a Conn only where the tag
// matches, so a miss (every SYN's lookup, every allocPort uniqueness
// probe) reads no Conn at all and a hit reads, but for a 1-in-255 tag
// collision, exactly one. Pointer and tag are what the table costs per
// connection in the bytes/conn account, against the 36–56 B/entry of
// the Go map it replaced. The hash is a fixed, seedless mix: slot order,
// and with it every walk of the table, is a pure function of the keys
// inserted.
type flowTable struct {
	slots []*Conn
	tags  []uint8
	n     int
}

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

// newFlowTable returns a table that holds expected connections without
// growing.
func newFlowTable(expected int) flowTable {
	n := minFlowSlots
	for n*3 < expected*4 {
		n <<= 1
	}
	return flowTable{slots: make([]*Conn, n), tags: make([]uint8, n)}
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
	mask := uint64(len(t.tags) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch t.tags[i] {
		case 0:
			return nil
		case tag:
			if c := t.slots[i]; c.key == k {
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
	mask := uint64(len(t.tags) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch t.tags[i] {
		case 0:
			t.slots[i], t.tags[i] = c, tag
			t.n++
			return
		case tag:
			if t.slots[i].key == c.key {
				t.slots[i] = c
				return
			}
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
	mask := uint64(len(t.tags) - 1)
	i := h & mask
probe:
	for ; ; i = (i + 1) & mask {
		switch t.tags[i] {
		case 0:
			return
		case tag:
			if t.slots[i].key == k {
				break probe
			}
		}
	}
	for j := (i + 1) & mask; t.tags[j] != 0; j = (j + 1) & mask {
		c := t.slots[j]
		if home := hashFlow(c.key) & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i], t.tags[i] = c, t.tags[j]
			i = j
		}
	}
	t.slots[i], t.tags[i] = nil, 0
	t.n--
}

// grow doubles the table, reinserting in slot order (deterministic).
func (t *flowTable) grow() {
	old := t.slots
	t.slots, t.tags = make([]*Conn, 2*len(old)), make([]uint8, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, c := range old {
		if c == nil {
			continue
		}
		h := hashFlow(c.key)
		i := h & mask
		for t.tags[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i], t.tags[i] = c, hashTag(h)
	}
}
