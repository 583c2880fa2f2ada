// Package core implements the IX dataplane: a per-application,
// single-address-space operating system that runs the network stack to
// completion with adaptive batching (§3, §4). Each dataplane owns
// dedicated cores (elastic threads), NIC queue pairs, and large-page
// memory granted by the control plane; elastic threads are shared-nothing
// and synchronization-free in the common case (§4.4).
//
// This file defines the dataplane ABI of Table 1: the batched system
// calls issued by the application and the event conditions generated by
// the kernel, both passed through arrays at coordinated transition points.
package core

import (
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/tcp"
	"ix/internal/wire"
)

// SyscallType enumerates the batched system calls (Table 1).
type SyscallType int

// Batched system calls.
const (
	// SysConnect opens a connection: cookie, dst IP, dst port.
	SysConnect SyscallType = iota
	// SysAccept accepts a connection: handle, cookie.
	SysAccept
	// SysSendv transmits a scatter-gather array of data: handle, sg.
	SysSendv
	// SysRecvDone advances the receive window and frees memory buffers:
	// handle, bytes acked.
	SysRecvDone
	// SysClose closes a connection (FIN).
	SysClose
	// SysAbort rejects/aborts a connection (RST) — the "rejects" half of
	// Table 1's close, split out for clarity.
	SysAbort
)

var syscallNames = [...]string{"connect", "accept", "sendv", "recv_done", "close", "abort"}

func (t SyscallType) String() string { return syscallNames[t] }

// Syscall is one entry of the batched system call array.
type Syscall struct {
	Type   SyscallType
	Handle uint64
	// Cookie is an opaque user tag echoed back on results and events
	// (0 = none). It is a compact integer — typically an index into a
	// user-library connection table — never a pointer: keeping interface
	// boxes out of per-connection kernel state is part of the bytes/conn
	// budget (DESIGN.md, "Per-connection memory budget").
	Cookie uint64
	// Connect parameters.
	DstIP   wire.IPv4
	DstPort uint16
	// Sendv parameters: the scatter-gather array, and (nil, or one per
	// entry) the pooled memory each entry lies in, which frames may then
	// carry by reference (tcp.Conn.Sendv). The application must keep the
	// referenced bytes immutable until acknowledged (§4.5).
	SG    [][]byte
	Backs []fabric.Backing
	// RecvDone parameters: bytes consumed and the buffers to recycle.
	Bytes int
	Bufs  []*mem.Mbuf
}

// SyscallResult is the kernel's per-entry return code, written back over
// the batch when the run-to-completion cycle processes it ("the kernel
// overwrites the array of batched system call requests with corresponding
// return codes", §4.3).
type SyscallResult struct {
	Type   SyscallType
	Handle uint64
	// Cookie echoes the call's own cookie (connect, accept); a sendv's
	// is the flow's, read from its capability entry as the event
	// conditions' is (0 when the handle was refused).
	Cookie uint64
	// N is the primary result: bytes accepted for sendv.
	N int
	// Err is nil on success; protection violations surface here.
	Err error
}

// EventType enumerates the event conditions (Table 1).
type EventType int

// Event conditions.
const (
	// EvKnock: a remotely initiated connection was opened
	// (handle, src IP, src port).
	EvKnock EventType = iota
	// EvConnected: a locally initiated connection finished opening
	// (cookie, outcome).
	EvConnected
	// EvRecv: a message buffer was received (cookie, mbuf ptr, len).
	EvRecv
	// EvSent: a send completed and/or the window size changed
	// (cookie, bytes sent, window size).
	EvSent
	// EvDead: a connection was terminated (cookie, reason).
	EvDead
	// EvEOF: the peer half-closed (FIN); an extension event the paper
	// folds into application-visible stream state.
	EvEOF
	// EvTimer: a user timer registered via the libix event loop fired.
	EvTimer
	// EvMigrated: the control plane moved this flow to the receiving
	// elastic thread (RSS rebalance); the user library must re-home its
	// per-flow state and adopt the new handle (§4.4 resource
	// reallocation).
	EvMigrated
)

var eventNames = [...]string{"knock", "connected", "recv", "sent", "dead", "eof", "timer", "migrated"}

func (t EventType) String() string { return eventNames[t] }

// Event is one entry of the event condition array.
type Event struct {
	Type   EventType
	Handle uint64
	Cookie uint64
	// Knock parameters.
	SrcIP   wire.IPv4
	SrcPort uint16
	// Connected outcome.
	Outcome bool
	// Recv parameters: the read-only message buffer and the payload
	// view within it (zero-copy, §4.3).
	Mbuf *mem.Mbuf
	Data []byte
	// Sent parameters. Bytes is the cumulative payload newly acked;
	// Released is the subset whose transmit segments the kernel has
	// fully dropped — the tx_sent signal that the zero-copy sender may
	// reclaim those buffer bytes (§3.3's "may not be modified until the
	// sent event condition").
	Bytes    int
	Window   int
	Released int
	// Dead reason.
	Reason tcp.Reason
	// Timer callback (EvTimer).
	Fn func()
}
