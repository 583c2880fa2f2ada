// Package dune models the protection architecture IX borrows from Dune
// (§4.1, §4.5): three-way isolation between the control plane (Linux in
// VMX root ring 0), the dataplane kernel (VMX non-root ring 0), and
// untrusted application code (VMX non-root ring 3).
//
// Go cannot take hardware faults, so this package enforces the security
// model, the checks that make the IX API safe against a buggy or
// malicious application: flow handles live in per-thread namespaces that
// reject foreign, forged and stale handles (§4.4); recv_done accounting
// rejects over-returns; read-only mbufs refuse writes. §4.1's POSIX
// intermediation is not modelled. Violations return errors and count;
// they never corrupt dataplane state — "a malicious or misbehaving
// application can only hurt itself."
package dune

import (
	"errors"
	"unsafe"
)

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

// A flow's handle is [16 bits thread | 16 zero | 32 bits flow id]. A flow
// id names its slot in the thread's flow arena in its low 24 bits and
// carries the slot's generation above (tcp.ConnID), so a handle is
// rebuilt from its flow and goes stale with it.
func slotOf(id uint32) uint32 { return id & (1<<24 - 1) }

// capEntry is one capability-table slot: the flow's id (0 while not
// granted), the user's cookie (Table 1), returned on every event
// condition, and the bytes delivered and not yet returned by recv_done.
// One exists per flow slot: its 16 B are a term of the per-connection
// memory budget.
type capEntry struct {
	cookie    uint64
	id        uint32
	delivered int32
}

// Gate is the per-elastic-thread system call gate: it owns the thread's
// flow-handle namespace, a table indexed by the flows' arena slots, and
// validates every batched system call before it reaches the kernel.
type Gate struct {
	thread  int
	entries []capEntry

	violations [vioCount]uint64
}

// NewGate creates the gate for elastic thread id, its table presized for
// expected flow slots (0 = grow on demand).
func NewGate(thread, expected int) *Gate {
	g := &Gate{thread: thread}
	if expected > 0 {
		g.entries = make([]capEntry, 0, expected)
	}
	return g
}

// Grant installs flow id (a dataplane flow) into the namespace with the
// user's cookie and returns its handle.
func (g *Gate) Grant(id uint32, cookie uint64) uint64 {
	idx := int(slotOf(id))
	for idx >= len(g.entries) {
		g.entries = append(g.entries, capEntry{})
	}
	g.entries[idx] = capEntry{cookie: cookie, id: id}
	return g.Handle(id)
}

// Handle returns the handle of flow id in this namespace.
func (g *Gate) Handle(id uint32) uint64 { return uint64(g.thread)<<48 | uint64(id) }

// entry returns h's live entry, or nil with the violation h commits.
func (g *Gate) entry(h uint64) (*capEntry, Violation) {
	if int(h>>48) != g.thread {
		return nil, VioForeignHandle
	}
	id := uint32(h)
	idx := slotOf(id)
	if int(idx) >= len(g.entries) {
		return nil, VioBadHandle
	}
	e := &g.entries[idx]
	if e.id == 0 {
		return nil, VioBadHandle
	}
	if e.id != id {
		return nil, VioStaleHandle
	}
	return e, 0
}

// violationErr maps a handle violation to the error the caller sees.
var violationErr = [...]error{
	VioBadHandle:     ErrBadHandle,
	VioForeignHandle: ErrForeignHandle,
	VioStaleHandle:   ErrStaleHandle,
}

// check is entry for a system call: a miss counts its violation.
func (g *Gate) check(h uint64) (*capEntry, error) {
	e, v := g.entry(h)
	if e == nil {
		g.violations[v]++
		return nil, violationErr[v]
	}
	return e, nil
}

// Lookup validates h and returns the flow id it was granted for.
func (g *Gate) Lookup(h uint64) (uint32, error) {
	e, err := g.check(h)
	if err != nil {
		return 0, err
	}
	return e.id, nil
}

// Cookie returns the user's cookie for h: 0 for a handle that is not
// live in this namespace (stale, foreign or revoked). It is the
// kernel's own read for an event condition, so a miss counts no
// violation.
func (g *Gate) Cookie(h uint64) uint64 {
	if e, _ := g.entry(h); e != nil {
		return e.cookie
	}
	return 0
}

// SetCookie sets the user's cookie for h (the accept system call tags
// a flow granted at establishment).
func (g *Gate) SetCookie(h uint64, cookie uint64) error {
	e, err := g.check(h)
	if err != nil {
		return err
	}
	e.cookie = cookie
	return nil
}

// Revoke removes h from the namespace (flow closed), clearing its
// cookie. Stale revokes are ignored.
func (g *Gate) Revoke(h uint64) {
	if e, _ := g.entry(h); e != nil {
		*e = capEntry{}
	}
}

// Delivered accounts bytes passed read-only to the application on h.
func (g *Gate) Delivered(h uint64, n int) {
	if e, _ := g.entry(h); e != nil {
		e.delivered += int32(n)
	}
}

// RecvDone validates a recv_done of n bytes against what was actually
// delivered, rejecting overruns (which could otherwise open the receive
// window beyond buffer accounting).
func (g *Gate) RecvDone(h uint64, n int) error {
	e, err := g.check(h)
	if err != nil {
		return err
	}
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
// entries backing (live and free slots — the table never shrinks below
// its high-water mark). The memprobe per-connection accounting charges
// this to the thread's flow population.
func (g *Gate) FootprintBytes() int64 {
	return int64(cap(g.entries)) * int64(unsafe.Sizeof(capEntry{}))
}

// Live returns the number of live handles (for leak tests).
func (g *Gate) Live() int {
	n := 0
	for _, e := range g.entries {
		if e.id != 0 {
			n++
		}
	}
	return n
}
