// Package dune models the protection architecture IX borrows from Dune
// (§4.1, §4.5): three-way isolation between the control plane (Linux in
// VMX root ring 0), the dataplane kernel (VMX non-root ring 0), and
// untrusted application code (VMX non-root ring 3).
//
// Go cannot take hardware faults on stray pointers, so what this package
// enforces is the *security model* — the set of checks that make the IX
// API safe against a malicious or buggy application:
//
//   - flow handles live in per-elastic-thread capability namespaces, so a
//     thread cannot operate on flows it does not own (the commutativity
//     property of §4.4) and forged or stale handles are rejected;
//   - recv_done accounting rejects double frees and over-returns of
//     message buffers;
//   - read-only mbuf mappings are checked on the write paths.
//
// The §4.1 intermediation of POSIX calls on their way to the Linux
// control plane is not modelled: no experiment issues one.
//
// Violations never corrupt dataplane state: they return errors and bump
// counters, which is exactly the paper's claim — "a malicious or
// misbehaving application can only hurt itself."
package dune

import (
	"errors"
	"unsafe"
)

// Ring is a protection level.
type Ring int

// Protection levels (Fig. 1a).
const (
	// RingVMXRoot0 runs the Linux control plane.
	RingVMXRoot0 Ring = iota
	// Ring0NonRoot runs the IX dataplane kernel.
	Ring0NonRoot
	// Ring3 runs untrusted application code.
	Ring3
)

func (r Ring) String() string {
	switch r {
	case RingVMXRoot0:
		return "vmx-root ring 0"
	case Ring0NonRoot:
		return "non-root ring 0"
	case Ring3:
		return "non-root ring 3"
	}
	return "unknown"
}

// A Domain is one protection context.
type Domain struct {
	Name string
	Ring Ring
}

// UserTimeout is how long an elastic thread may spend in user mode before
// the dataplane's timeout interrupt marks the application non-responsive
// (§4.5: "in excess of 10ms").
const UserTimeout = "10ms"

// Violation kinds counted by the gate.
type Violation int

// Violation kinds.
const (
	VioBadHandle Violation = iota
	VioForeignHandle
	VioStaleHandle
	VioRecvDoneOverrun
	VioReadOnlyWrite
	VioSyscallDenied
	vioCount
)

var violationNames = [...]string{
	"bad-handle", "foreign-handle", "stale-handle",
	"recv-done-overrun", "read-only-write", "syscall-denied",
}

func (v Violation) String() string { return violationNames[v] }

// Errors returned to the offending application.
var (
	ErrBadHandle     = errors.New("dune: no such flow handle")
	ErrForeignHandle = errors.New("dune: handle owned by another elastic thread")
	ErrStaleHandle   = errors.New("dune: stale handle generation")
	ErrRecvDone      = errors.New("dune: recv_done returns more than delivered")
	ErrReadOnly      = errors.New("dune: write to read-only message buffer")
	ErrDenied        = errors.New("dune: operation not permitted")
)

// handle bit layout: [16 bits thread | 16 bits generation | 32 bits index].
func makeHandle(thread int, gen uint16, idx uint32) uint64 {
	return uint64(thread)<<48 | uint64(gen)<<32 | uint64(idx)
}

func handleThread(h uint64) int { return int(h >> 48) }
func handleGen(h uint64) uint16 { return uint16(h >> 32) }

// HandleIndex returns the capability-table slot a handle names. Within
// one elastic thread's namespace the indices of live handles are dense
// (freed slots recycle first), so a user-level library can key its own
// per-flow table by it — checking the full handle on lookup, since a
// recycled slot serves a new generation.
func HandleIndex(h uint64) uint32 { return uint32(h) }

// capEntry is one capability-table slot. Field order packs it into 24
// bytes (interface word pair, then the narrow scalars): with one entry
// per live flow, slot size is a direct term of the per-connection
// memory budget.
type capEntry struct {
	obj any
	// delivered tracks bytes delivered to user space and not yet
	// returned by recv_done, for overrun validation; bounded by the
	// flow's receive window, so 32 bits hold it.
	delivered int32
	gen       uint16
	live      bool
}

// Gate is the per-elastic-thread system call gate: it owns the thread's
// flow-handle namespace and validates every batched system call before it
// reaches the dataplane kernel proper.
type Gate struct {
	thread  int
	entries []capEntry
	freeIdx []uint32

	violations [vioCount]uint64
}

// NewGate creates the gate for elastic thread id. expected presizes the
// capability table for the anticipated flow population (0 = grow on
// demand): a presized table never pays append-doubling's transient
// double allocation, and its capacity is exact rather than the next
// power of two — both visible in the bytes/conn account.
func NewGate(thread, expected int) *Gate {
	g := &Gate{thread: thread}
	if expected > 0 {
		g.entries = make([]capEntry, 0, expected)
	}
	return g
}

// Grant installs obj (a dataplane flow) into the namespace and returns
// its handle.
func (g *Gate) Grant(obj any) uint64 {
	var idx uint32
	if n := len(g.freeIdx); n > 0 {
		idx = g.freeIdx[n-1]
		g.freeIdx = g.freeIdx[:n-1]
	} else {
		idx = uint32(len(g.entries))
		g.entries = append(g.entries, capEntry{})
	}
	e := &g.entries[idx]
	e.gen++
	e.obj = obj
	e.live = true
	e.delivered = 0
	return makeHandle(g.thread, e.gen, idx)
}

// Lookup validates h and returns the granted object.
func (g *Gate) Lookup(h uint64) (any, error) {
	if handleThread(h) != g.thread {
		g.violations[VioForeignHandle]++
		return nil, ErrForeignHandle
	}
	idx := HandleIndex(h)
	if int(idx) >= len(g.entries) {
		g.violations[VioBadHandle]++
		return nil, ErrBadHandle
	}
	e := &g.entries[idx]
	if !e.live {
		g.violations[VioBadHandle]++
		return nil, ErrBadHandle
	}
	if e.gen != handleGen(h) {
		g.violations[VioStaleHandle]++
		return nil, ErrStaleHandle
	}
	return e.obj, nil
}

// Revoke removes h from the namespace (flow closed). Stale revokes are
// ignored.
func (g *Gate) Revoke(h uint64) {
	if handleThread(h) != g.thread {
		return
	}
	idx := HandleIndex(h)
	if int(idx) >= len(g.entries) {
		return
	}
	e := &g.entries[idx]
	if e.live && e.gen == handleGen(h) {
		e.live = false
		e.obj = nil
		g.freeIdx = append(g.freeIdx, idx)
	}
}

// Delivered accounts bytes passed read-only to the application on h.
func (g *Gate) Delivered(h uint64, n int) {
	idx := HandleIndex(h)
	if int(idx) < len(g.entries) && g.entries[idx].live {
		g.entries[idx].delivered += int32(n)
	}
}

// RecvDone validates a recv_done of n bytes against what was actually
// delivered, rejecting overruns (which could otherwise open the receive
// window beyond buffer accounting).
func (g *Gate) RecvDone(h uint64, n int) error {
	obj, err := g.Lookup(h)
	if err != nil {
		return err
	}
	_ = obj
	e := &g.entries[HandleIndex(h)]
	if int32(n) > e.delivered {
		g.violations[VioRecvDoneOverrun]++
		return ErrRecvDone
	}
	e.delivered -= int32(n)
	return nil
}

// CheckWritable rejects writes to read-only user mappings (incoming
// mbufs). The readOnly flag comes from the buffer's mapping.
func (g *Gate) CheckWritable(readOnly bool) error {
	if readOnly {
		g.violations[VioReadOnlyWrite]++
		return ErrReadOnly
	}
	return nil
}

// Deny records a rejected system call.
func (g *Gate) Deny() error {
	g.violations[VioSyscallDenied]++
	return ErrDenied
}

// Violations returns the count for one violation kind.
func (g *Gate) Violations(v Violation) uint64 { return g.violations[v] }

// TotalViolations sums all violation counters.
func (g *Gate) TotalViolations() uint64 {
	var t uint64
	for _, v := range g.violations {
		t += v
	}
	return t
}

// FootprintBytes returns the capability-table bytes the gate pins: the
// entries backing (live and freed slots — the table never shrinks below
// its high-water mark) plus the free-index stack. The memprobe
// per-connection accounting charges this to the thread's flow
// population.
func (g *Gate) FootprintBytes() int64 {
	return int64(cap(g.entries))*int64(unsafe.Sizeof(capEntry{})) +
		int64(cap(g.freeIdx))*int64(unsafe.Sizeof(uint32(0)))
}

// Live returns the number of live handles (for leak tests).
func (g *Gate) Live() int {
	n := 0
	for _, e := range g.entries {
		if e.live {
			n++
		}
	}
	return n
}
