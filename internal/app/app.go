// Package app defines the architecture-independent application interface:
// the event-driven programming model that libix exposes on IX and that the
// Linux (libevent/epoll) and mTCP baselines expose through their own
// adapters. Writing the benchmark applications (echo, NetPIPE, memcached,
// mutilate agents) against this one interface is what makes the §5
// comparisons apples-to-apples: the same application logic runs on all
// three OS architectures, exactly as the paper ports the same memcached to
// both Linux and IX.
package app

import (
	"time"

	"ix/internal/wire"
)

// Conn is an established connection as seen by the application.
type Conn interface {
	// Send queues b for transmission and returns the bytes accepted
	// (possibly short of len(b) when the connection's pending-send
	// budget is exhausted; flow-control progress is delivered through
	// OnSent). The caller may reuse b immediately: each adapter takes
	// exactly one warm-cache copy close to use (§6) — on IX into the
	// connection's pooled TX arena, whose bytes the dataplane then
	// references in place until the peer's ACK releases them (the
	// zero-copy ownership contract of §3.3); on the baselines into
	// their kernel/user send buffers.
	Send(b []byte) int
	// Close performs an orderly close (FIN).
	Close()
	// Abort closes with RST, the benchmark-style close of §5.3.
	Abort()
	// Cookie returns the user tag attached to the connection.
	Cookie() any
	// SetCookie attaches a user tag (Table 1's cookie).
	SetCookie(v any)
}

// Handler receives connection events. One handler instance exists per
// elastic thread / core; the runtime never calls it concurrently.
type Handler interface {
	// OnAccept fires when a remotely initiated connection is ready.
	OnAccept(c Conn)
	// OnConnected reports the outcome of Env.Connect.
	OnConnected(c Conn, ok bool)
	// OnRecv delivers received bytes. data is valid only during the
	// callback (underlying buffers are recycled after it returns);
	// handlers copy what they retain.
	OnRecv(c Conn, data []byte)
	// OnSent is the tx_sent event condition: acked bytes reached the
	// peer and were acknowledged (flow-control progress). Transmit
	// buffer reclamation follows the same signal but at segment
	// granularity — a partially acknowledged segment stays referenced
	// in full until the ACK covers it — and is handled inside each
	// adapter (on IX, the libix TX arena's release cursor); the
	// application's own buffer was free the moment Send returned.
	OnSent(c Conn, acked int)
	// OnEOF reports a peer half-close; the usual response is Close.
	OnEOF(c Conn)
	// OnClosed reports connection termination. The Conn is dead.
	OnClosed(c Conn)
}

// Base supplies the callbacks most handlers leave alone, as libix lets
// an application register only the event conditions it handles (§4.3):
// OnAccept, OnConnected, OnSent and OnClosed do nothing, and OnEOF
// answers a peer half-close with Close. A handler embeds it and writes
// OnRecv itself. Base has no OnSendReady on purpose: an adapter arms the
// writable-again condition only for handlers that implement
// SendReadyHandler, so a default there would arm it for every
// application.
type Base struct{}

func (Base) OnAccept(Conn)          {}
func (Base) OnConnected(Conn, bool) {}
func (Base) OnSent(Conn, int)       {}
func (Base) OnEOF(c Conn)           { c.Close() }
func (Base) OnClosed(Conn)          {}

// SendReadyHandler is an optional Handler extension: the writable-again
// event condition. After a Send returned short (pending-send budget or
// transmit pool exhausted), an adapter whose handler implements this
// interface delivers exactly one OnSendReady when the connection can
// accept bytes again — on IX when the kernel's sendv acceptance reopens
// the MaxPendingSend budget or the ACK-driven arena release returns
// chunks to the thread pool, on the baselines when the kernel/user send
// buffer drains below its cap. Callers retry Send from the callback; a
// retry that comes up short re-arms the condition. Handlers that do not
// implement the interface see no behaviour change (no polling, no
// spurious wakeups — the libevent write-event-on-demand model).
type SendReadyHandler interface {
	OnSendReady(c Conn)
}

// Env is the per-thread runtime environment handed to applications.
type Env interface {
	// Now returns virtual time in nanoseconds.
	Now() int64
	// Charge accounts application CPU time on the current core — how
	// the simulation attributes the app's share of each cycle.
	Charge(d time.Duration)
	// Elapsed returns the CPU time already charged in the current
	// execution context, so Now()+Elapsed() is this thread's true
	// virtual position within a batch (used e.g. by the memcached lock
	// contention model).
	Elapsed() time.Duration
	// Connect initiates a connection from this thread; OnConnected
	// reports the outcome.
	Connect(dst wire.IPv4, port uint16, cookie any) error
	// Listen accepts connections on port for this thread.
	Listen(port uint16) error
	// After schedules fn on this thread's timer service (used by load
	// generators for pacing and timeouts).
	After(d time.Duration, fn func())
}

// Factory creates the per-thread application instance at start of day.
// Threads on the same host share the process address space, so factories
// may close over shared state (e.g. the memcached store) — the same model
// as a multithreaded IX application.
type Factory func(env Env, thread, threads int) Handler
