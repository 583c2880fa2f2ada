package tcp

import (
	"errors"
	"math/bits"
	"testing"
	"unsafe"
)

// ConnID names a connection in its stack: its arena slot in the low 24
// bits and the slot's generation, which moves on each time the slot is
// handed out, in the top 8 (DESIGN.md, "Per-connection memory budget").
// No live id is 0.
type ConnID uint32

const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
)

// Slot returns the arena slot id names.
func (id ConnID) Slot() uint32 { return uint32(id) & slotMask }

func (id ConnID) gen() uint8 { return uint8(id >> slotBits) }

// Blocks grow from firstBlock slots to maxBlock by doubling (growBlocks
// of them, growSlots slots together), then stay at maxBlock. A block's
// first slot is its header.
const (
	firstBlock = 8
	maxBlock   = 256
	growBlocks = 6
	growSlots  = 2*maxBlock - firstBlock
	connSize   = int(unsafe.Sizeof(Conn{}))
)

// block is an arena allocation of n slots, A being [n-1]Conn: a header
// 8 B short of a slot, then the PCBs. The runtime's 8 B malloc header on
// an object over 512 B fills the gap, so a block takes the 64·n size
// class exactly. The header's stack pointer is the one word the
// collector scans.
type block[A any] struct {
	stack *Stack
	_     [connSize - 16]byte
	conns A
}

// locate returns the block holding slot and the slot's offset in it.
//
//ix:hotpath
func locate(slot uint32) (blk, off uint32) {
	if slot < growSlots {
		blk = uint32(bits.Len32(slot/firstBlock+1)) - 1
		return blk, slot - firstBlock*(1<<blk-1)
	}
	slot -= growSlots
	return growBlocks + slot/maxBlock, slot % maxBlock
}

func blockSlots(blk int) int { return firstBlock << min(blk, growBlocks-1) }

// SlotSpan returns the slots an arena spans once it has handed out n:
// what an owner table indexed by ConnID.Slot needs for n connections.
func SlotSpan(n int) int {
	slots := 0
	for blk := 0; n > 0; blk++ {
		slots += blockSlots(blk)
		n -= blockSlots(blk) - 1
	}
	return slots
}

func newBlock(s *Stack, blk int) []Conn {
	switch blockSlots(blk) {
	case 8:
		return carve(&block[[7]Conn]{stack: s})
	case 16:
		return carve(&block[[15]Conn]{stack: s})
	case 32:
		return carve(&block[[31]Conn]{stack: s})
	case 64:
		return carve(&block[[63]Conn]{stack: s})
	case 128:
		return carve(&block[[127]Conn]{stack: s})
	}
	return carve(&block[[255]Conn]{stack: s})
}

func carve[A any](b *block[A]) []Conn {
	return unsafe.Slice((*Conn)(unsafe.Pointer(&b.conns)), unsafe.Sizeof(b.conns)/uintptr(connSize))
}

// stack returns the stack whose arena holds c: its block's header.
//
//ix:hotpath
func (c *Conn) stack() *Stack {
	_, off := locate(c.id.Slot())
	return (*block[struct{}])(unsafe.Add(unsafe.Pointer(c), 8-int(off)*connSize)).stack
}

var errArenaFull = errors.New("tcp: connection arena exhausted: 24-bit slot space")

// arena is a stack's PCB allocator: its blocks and the freed slots,
// reused LIFO so the hot PCBs stay warm. A freed PCB keeps its last id,
// from which the slot's next generation follows.
type arena struct {
	owner  *Stack
	blocks [][]Conn
	free   []uint32
	next   uint32 // the lowest slot never handed out
}

//ix:hotpath
func (a *arena) at(slot uint32) *Conn {
	blk, off := locate(slot)
	return &a.blocks[blk][off-1]
}

// alloc hands out a zeroed PCB carrying its id; only a new block
// allocates.
//
//ix:hotpath
func (a *arena) alloc() *Conn {
	var slot uint32
	if n := len(a.free); n > 0 {
		slot, a.free = a.free[n-1], a.free[:n-1]
	} else {
		if blk, off := locate(a.next); off == 0 {
			if a.next+uint32(blockSlots(int(blk))) > slotMask+1 {
				panic(errArenaFull)
			}
			a.blocks = append(a.blocks, newBlock(a.owner, int(blk)))
			a.next++
		}
		slot = a.next
		a.next++
	}
	c := a.at(slot)
	gen := max(c.id.gen()+1, 1) // 255 wraps to 1: no live id is 0
	*c = Conn{id: ConnID(uint32(gen)<<slotBits | slot)}
	return c
}

// release frees c's slot. The PCB keeps only its id, so the rest of the
// call that closed it reads a closed connection and every id of it is
// stale: lookup takes a closed PCB for a free one.
//
//ix:hotpath
func (a *arena) release(c *Conn) {
	*c = Conn{id: c.id}
	a.free = append(a.free, c.id.Slot())
}

// lookup returns the connection id names, or nil if id is stale.
//
//ix:hotpath
func (a *arena) lookup(id ConnID) *Conn {
	slot := id.Slot()
	if slot >= a.next {
		return nil
	}
	if blk, off := locate(slot); off != 0 {
		if c := &a.blocks[blk][off-1]; c.id == id && c.state != StateClosed {
			return c
		}
	}
	return nil
}

// bytes is the arena's memprobe charge: whole blocks, headers and spare
// slots included, and the two lists.
func (a *arena) bytes() int64 {
	b := int64(cap(a.free))*4 + int64(cap(a.blocks))*int64(unsafe.Sizeof([]Conn(nil)))
	for blk := range a.blocks {
		b += int64(blockSlots(blk) * connSize)
	}
	return b
}

// panicOnStale is whether a stale id panics rather than counts.
var panicOnStale = testing.Testing()

// Conn resolves id to its live connection. A stale id is a use after
// free: it panics in a test binary and otherwise counts in StaleIDs and
// resolves to nil, which callers refuse.
func (s *Stack) Conn(id ConnID) *Conn {
	if c := s.arena.lookup(id); c != nil {
		return c
	}
	if panicOnStale {
		panic("tcp: stale connection id")
	}
	s.StaleIDs++
	return nil
}

// ID returns the connection's name in its stack.
func (c *Conn) ID() ConnID { return c.id }
