package tcp

import "ix/internal/wire"

// flowTable is a stack's connection demux table: open addressing with
// linear probing over a power-of-two array of *Conn, load held at or
// below 3/4, deletion by backward shift (no tombstones, so a churning
// table never degrades). A slot is one pointer — the key is read from
// the Conn it points at — which is what the table costs per connection
// in the bytes/conn account, against the 36–56 B/entry of the Go map it
// replaced. The hash is a fixed, seedless mix: slot order, and with it
// every walk of the table, is a pure function of the keys inserted.
type flowTable struct {
	slots []*Conn
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
	return flowTable{slots: make([]*Conn, n)}
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

// get returns the connection with key k, or nil. The load bound
// guarantees an empty slot, so the probe always terminates.
//
//ix:hotpath
func (t *flowTable) get(k connKey) *Conn {
	mask := uint64(len(t.slots) - 1)
	for i := hashFlow(k) & mask; ; i = (i + 1) & mask {
		if c := t.slots[i]; c == nil || c.key == k {
			return c
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
	mask := uint64(len(t.slots) - 1)
	for i := hashFlow(c.key) & mask; ; i = (i + 1) & mask {
		switch o := t.slots[i]; {
		case o == nil:
			t.slots[i] = c
			t.n++
			return
		case o.key == c.key:
			t.slots[i] = c
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
	mask := uint64(len(t.slots) - 1)
	i := hashFlow(k) & mask
	for {
		c := t.slots[i]
		if c == nil {
			return
		}
		if c.key == k {
			break
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		c := t.slots[j]
		if c == nil {
			break
		}
		if home := hashFlow(c.key) & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i] = c
			i = j
		}
	}
	t.slots[i] = nil
	t.n--
}

// grow doubles the table, reinserting in slot order (deterministic).
func (t *flowTable) grow() {
	old := t.slots
	t.slots = make([]*Conn, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, c := range old {
		if c == nil {
			continue
		}
		i := hashFlow(c.key) & mask
		for t.slots[i] != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = c
	}
}
