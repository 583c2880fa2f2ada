// Package libix is the user-level library of §4.3: it abstracts the
// low-level batched syscall/event-condition ABI behind a libevent-style
// callback API (app.Handler). Like the paper's libix, it:
//
//   - coalesces multiple application writes into a single sendv system
//     call per batching round, preserving stream order across partial
//     accepts;
//   - tracks outgoing buffers in the transmit vector and re-issues
//     trimmed writes when the `sent` event condition reports window
//     space, so send-window policy lives entirely in user space;
//   - enforces a maximum pending-send byte limit (the paper's "very
//     basic" buffer sizing policy);
//   - owns a per-connection zero-copy TX arena (borrowed from a pool
//     while the connection has bytes in flight): Send appends the message
//     into pooled arena chunks (one warm-cache copy, no allocation), the
//     transmit vector and the kernel's retransmission queue reference
//     arena bytes in place, and the `sent` event condition's release
//     count — cumulative-ACK-driven — reclaims chunks. This is the
//     paper's §3.3 ownership contract ("may not be modified until the
//     sent event condition signals the peer's ACK") made explicit;
//   - recycles the kernel's read-only RX mbufs via batched recv_done
//     calls as soon as the handler returns.
package libix

import (
	"fmt"
	"time"

	"ix/internal/app"
	"ix/internal/core"
	"ix/internal/dune"
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/sockcore"
	"ix/internal/wire"
)

// Tunables of the user-level library.
const (
	// MaxPendingSend is the per-connection pending-send byte limit.
	MaxPendingSend = 1 << 20
	// dispatchCost is the per-event user-level dispatch overhead.
	dispatchCost = 18 * time.Nanosecond
	// copyPerByte is the arena-append cost (ns/byte): the single
	// warm-cache copy of the message into the TX arena, the same copy
	// the pre-arena path charged for its libevent-compatibility buffer —
	// what the arena removes is the per-message heap allocation (a real
	// wall-clock cost, never part of the simulated cost model), so the
	// charge is unchanged.
	copyPerByte = 0.06
)

// Program adapts an app.Factory to the dataplane's UserProgram contract.
// Use it as core.Config.User.
func Program(factory app.Factory) func(api *core.UserAPI, thread, threads int) core.UserProgram {
	// One cookie table per dataplane, shared by every elastic thread's
	// program: kernel cookies must survive EvMigrated re-homing across
	// threads (the destination thread resolves the migrated flow's
	// cookie), and the whole simulation runs on one goroutine, so the
	// shared table needs no locking. The kernel carries only the 8-byte
	// id in its per-connection state, and the table resolves it back to
	// the descriptor on each event.
	tab := &sockcore.Table[conn]{}
	return func(api *core.UserAPI, thread, threads int) core.UserProgram {
		tab.Reserve(api.ExpectedConns())
		p := &program{
			api:     api,
			txchunk: api.TxChunks(),
			tab:     tab,
			first:   thread == 0,
		}
		if n := api.ExpectedConns(); n > 0 && threads > 0 {
			p.byHandle = make([]*conn, 0, n/threads)
		}
		p.handler = factory(p, thread, threads)
		p.sendReady, _ = p.handler.(app.SendReadyHandler)
		return p
	}
}

// program is the per-elastic-thread event loop.
type program struct {
	api     *core.UserAPI
	txchunk *mem.TxChunkPool
	handler app.Handler
	// sendReady is the handler's optional writable-again extension
	// (nil when not implemented).
	sendReady app.SendReadyHandler
	// tab is the dataplane-shared cookie table (see Program); first
	// marks thread 0's program, which accounts the table's footprint so
	// the shared bytes are charged exactly once per host.
	tab   *sockcore.Table[conn]
	first bool
	// byHandle resolves a kernel flow handle to its connection: indexed
	// by the handle's dense slot index in this thread's capability
	// namespace, verified against the full handle (slots recycle under a
	// new generation). Needed where no cookie travels — sendv return
	// codes, and events raised before the accept syscall has executed.
	byHandle []*conn
	// ioFree recycles connIO objects between connections with I/O in
	// flight (LIFO, so the hot ones stay cache-warm).
	ioFree []*connIO
	dirty  []*conn // connections with work to flush this round
	// backs holds, for this round's sendv calls, the arena chunk each
	// scatter-gather entry lies in; the kernel phase of the same cycle
	// consumes them, so the next round reuses the backing.
	backs []fabric.Backing
	// waiters are connections whose send-ready condition is armed, in
	// registration order (delivery order is therefore deterministic).
	waiters []*conn
}

// conn is the user-level connection descriptor. It holds only what an
// idle established connection needs — identity, the application's tag,
// byte counters and flags; everything that exists only while I/O is in
// flight lives in a connIO borrowed from the program's pool (DESIGN.md,
// "Per-connection memory budget"). txBytes/rdBytes are int32: both are
// bounded by MaxPendingSend and the receive window.
type conn struct {
	p      *program
	handle uint64
	cookie any

	// io is non-nil from the first Send or EvRecv until the arena, the
	// transmit vector and the receive recycle list are all empty again.
	io *connIO

	txBytes int32 // bytes in the transmit vector
	rdBytes int32 // bytes consumed this round, owed to recv_done

	issued  bool // a sendv is in the current batch
	stalled bool // last sendv was trimmed; wait for a sent event
	// closing: Close was called with bytes still in the txq; the close
	// syscall is deferred until the transmit vector drains, so queued
	// data reaches the wire ahead of the FIN.
	closing bool
	closed  bool
	// wantReady: the send-ready condition is armed (the conn sits in
	// p.waiters); blockedPool refines it — the short Send hit chunk-pool
	// exhaustion, so delivery also waits for the pool to reopen.
	wantReady   bool
	blockedPool bool
	inDirty     bool
}

// connIO is the in-flight I/O state of one connection: the zero-copy TX
// arena, the transmit vector over it, and the receive recycle list. A
// program pools them; of a 250k-connection population only the few
// hundred connections with an RPC in flight hold one.
type connIO struct {
	// arena holds the connection's outgoing bytes; txq entries and the
	// kernel's retransmission segments reference it in place. Released
	// by the sent event condition's cumulative-ACK count.
	arena mem.TxArena

	// Transmit vector: arena views not yet accepted by the kernel.
	// txHead is the consumption cursor. On full drain a one-entry backing
	// (the request-response steady state) is kept and anything larger —
	// grown by a bulk or flow-controlled send — is released, so a pooled
	// object retains at most one entry of transmit state.
	txq    [][]byte
	txHead int32

	// Receive recycling accumulated during this round; the batch issued
	// to recv_done is consumed within the same cycle.
	rdBufs []*mem.Mbuf
}

// getIO returns the connection's I/O state, borrowing one from the
// program's pool on first use. The arena is pointed at the borrowing
// thread's chunk pool each time: a pooled object may have arrived with
// a migrated connection.
//
//ix:hotpath
func (c *conn) getIO() *connIO {
	if c.io != nil {
		return c.io
	}
	p := c.p
	var io *connIO
	if n := len(p.ioFree); n > 0 {
		io = p.ioFree[n-1]
		p.ioFree[n-1] = nil
		p.ioFree = p.ioFree[:n-1]
	} else {
		//ixvet:ignore(hotpath) pool miss: once per unit of peak concurrency, steady state hits the free list
		io = &connIO{}
	}
	io.arena.Init(p.txchunk)
	c.io = io
	return io
}

// putIO returns the I/O state to the owning program's pool once nothing
// is in flight: no unacknowledged arena bytes, an empty transmit vector,
// nothing owed to recv_done.
//
//ix:hotpath
func (c *conn) putIO() {
	io := c.io
	if io == nil || c.rdBytes > 0 || io.arena.Chunks() > 0 || len(io.txq) > 0 || len(io.rdBufs) > 0 {
		return
	}
	c.io = nil
	c.p.ioFree = append(c.p.ioFree, io)
}

// dropIO tears the I/O state down with the connection: nothing
// references the arena any more (the kernel dropped the flow's
// retransmission queue), and receive buffers still pending recycle
// locally.
func (c *conn) dropIO() {
	io := c.io
	if io == nil {
		return
	}
	io.arena.ReleaseAll()
	for _, b := range io.rdBufs {
		b.Unref()
	}
	clear(io.rdBufs)
	io.rdBufs = keepOneSlot(io.rdBufs)
	clear(io.txq)
	io.txq = keepOneSlot(io.txq)
	io.txHead = 0
	c.putIO()
}

// keepOneSlot empties a drained vector: a one-slot backing — the
// request-response steady state — is kept so the steady cycle stays
// allocation-free, anything larger was grown by a burst and is
// released, bounding what a pooled connIO retains.
func keepOneSlot[T any](s []T) []T {
	if cap(s) > 1 {
		return nil
	}
	return s[:0]
}

var _ app.Conn = (*conn)(nil)

// Send appends b to the connection's TX arena and schedules a coalesced
// sendv over the arena views. No allocation happens: the bytes take one
// warm-cache copy into a pooled chunk and are then referenced in place
// by the transmit vector and, once transmitted, the kernel's
// retransmission queue — immutable until the sent event condition's
// release count passes them (the §3.3 ownership contract). Bytes beyond
// the pending-send limit (or an exhausted chunk pool) are dropped and
// reported short, pushing the buffering decision back to the
// application; only accepted bytes are charged.
//
//ix:hotpath
func (c *conn) Send(b []byte) int {
	if c.closed || c.closing {
		return 0
	}
	want := len(b)
	room := MaxPendingSend - int(c.txBytes)
	if room <= 0 {
		c.armSendReady(false)
		return 0
	}
	if len(b) > room {
		b = b[:room]
	}
	io := c.getIO()
	accepted := io.appendTx(b)
	if accepted < want {
		c.armSendReady(accepted < len(b))
	}
	if accepted == 0 {
		c.putIO()
		return 0
	}
	c.p.api.Charge(time.Duration(float64(accepted) * copyPerByte))
	c.txBytes += int32(accepted)
	c.markDirty()
	return accepted
}

// appendTx copies b into the arena and queues the views on the transmit
// vector. It returns the bytes accepted: fewer than len(b) only when the
// chunk pool ran dry.
//
//ix:hotpath
func (io *connIO) appendTx(b []byte) int {
	n := 0
	for n < len(b) {
		chunks := io.arena.Chunks()
		v := io.arena.Append(b[n:])
		if len(v) == 0 {
			break
		}
		io.pushTx(v, io.arena.Chunks() == chunks)
		n += len(v)
	}
	return n
}

// pushTx appends an arena view to the transmit vector. A view that
// landed in the chunk the pending tail entry lies in (sameChunk: the
// append opened no new chunk) continues that entry, so the two merge
// into one scatter-gather entry: the run of the chunk's newest bytes in
// its current buffer, since the tail may still point into a buffer the
// chunk has grown out of. Small messages thus coalesce, and the vector
// holds one pending entry per chunk.
//
//ix:hotpath
func (io *connIO) pushTx(v []byte, sameChunk bool) {
	if n := len(io.txq); sameChunk && n > int(io.txHead) {
		io.txq[n-1] = io.arena.Run(len(io.txq[n-1]) + len(v))
		return
	}
	io.txq = append(io.txq, v)
}

// appendBacks appends the arena chunk each pending transmit vector entry
// lies in, so frames may carry the entries by reference. Each entry lies
// in a chunk of its own, the newest last (pushTx merges by chunk), so
// the chunks are the arena's newest, in order.
func (io *connIO) appendBacks(backs []fabric.Backing) []fabric.Backing {
	for _, k := range io.arena.Newest(len(io.txq) - int(io.txHead)) {
		backs = append(backs, k)
	}
	return backs
}

// armSendReady arms the writable-again condition after a short Send; a
// no-op unless the thread's handler implements app.SendReadyHandler.
// pool marks that the shortfall came from chunk-pool exhaustion rather
// than the pending-send budget.
//
//ix:hotpath
func (c *conn) armSendReady(pool bool) {
	if pool {
		c.blockedPool = true
	}
	if c.p.sendReady == nil || c.wantReady {
		return
	}
	c.wantReady = true
	c.p.waiters = append(c.p.waiters, c)
}

// Unsent reports bytes not yet accepted by the dataplane.
func (c *conn) Unsent() int { return int(c.txBytes) }

// Close requests an orderly close after pending data drains: when the
// transmit vector still holds bytes, the close syscall — which would
// sequence the FIN at sndNxt, ahead of them — is deferred until the
// sent event condition drains the vector. Further writes are rejected.
func (c *conn) Close() {
	if c.closed || c.closing {
		return
	}
	if c.txBytes > 0 {
		c.closing = true
		return
	}
	c.closed = true
	c.p.api.Close(c.handle)
}

// finishClose issues the deferred close syscall once the transmit
// vector has fully drained.
func (c *conn) finishClose() {
	if !c.closing || c.closed || c.txBytes > 0 {
		return
	}
	c.closing = false
	c.closed = true
	c.p.api.Close(c.handle)
}

// Abort resets the connection immediately.
func (c *conn) Abort() {
	if c.closed {
		return
	}
	c.closing = false
	c.closed = true
	c.p.api.Abort(c.handle)
}

// Cookie returns the application tag.
func (c *conn) Cookie() any { return c.cookie }

// SetCookie tags the connection.
func (c *conn) SetCookie(v any) { c.cookie = v }

//ix:hotpath
func (c *conn) markDirty() {
	if !c.inDirty {
		c.inDirty = true
		c.p.dirty = append(c.p.dirty, c)
	}
}

// program implements app.Env.

// Now returns virtual nanoseconds.
func (p *program) Now() int64 { return p.api.Now() }

// Charge accounts application CPU time.
func (p *program) Charge(d time.Duration) { p.api.Charge(d) }

// Elapsed returns CPU time charged in the current cycle.
func (p *program) Elapsed() time.Duration { return p.api.Elapsed() }

// Thread returns the elastic thread index.
func (p *program) Thread() int { return p.api.Thread() }

// Listen binds this thread's stack to port.
func (p *program) Listen(port uint16) error { return p.api.Listen(port) }

// After schedules fn on the thread's timer service.
func (p *program) After(d time.Duration, fn func()) { p.api.After(d, fn) }

// Connect initiates a connection; OnConnected reports the outcome.
func (p *program) Connect(dst wire.IPv4, port uint16, cookie any) error {
	c := &conn{p: p, cookie: cookie}
	p.api.Connect(p.tab.Grant(c), dst, port)
	return nil
}

// bindHandle records c under its kernel flow handle.
//
//ix:hotpath
func (p *program) bindHandle(c *conn) {
	i := int(dune.HandleIndex(c.handle))
	for len(p.byHandle) <= i {
		p.byHandle = append(p.byHandle, nil)
	}
	p.byHandle[i] = c
}

// byHandleLookup resolves a flow handle; unknown and stale handles (the
// slot now serves another generation) return nil.
//
//ix:hotpath
func (p *program) byHandleLookup(h uint64) *conn {
	if i := int(dune.HandleIndex(h)); i < len(p.byHandle) {
		if c := p.byHandle[i]; c != nil && c.handle == h {
			return c
		}
	}
	return nil
}

// unbindHandle forgets c's handle (flow dead or migrated away).
func (p *program) unbindHandle(c *conn) {
	if p.byHandleLookup(c.handle) == c {
		p.byHandle[dune.HandleIndex(c.handle)] = nil
	}
}

// Run is the ring-3 phase of the run-to-completion cycle: consume return
// codes, consume event conditions, run handlers, then coalesce and issue
// this round's batched system calls.
func (p *program) Run(api *core.UserAPI, events []core.Event, results []core.SyscallResult) {
	// 1. Return codes from the previous batch.
	for i := range results {
		p.processResult(&results[i])
	}
	// 2. Event conditions.
	for i := range events {
		p.processEvent(&events[i])
	}
	// 3. Writable-again deliveries: after results reopened pending-send
	// budgets and events released arena chunks, wake armed writers whose
	// shortfall has actually cleared (so every wake makes progress).
	if len(p.waiters) > 0 {
		p.fireSendReady()
	}
	// 4. Coalesced flush: one sendv per dirty connection, plus batched
	// recv_done recycling.
	p.backs = p.backs[:0]
	for _, c := range p.dirty {
		c.inDirty = false
		io := c.io
		if io == nil {
			continue // died since it was marked
		}
		if c.rdBytes > 0 || len(io.rdBufs) > 0 {
			api.RecvDone(c.handle, int(c.rdBytes), io.rdBufs)
			c.rdBytes = 0
			// The issued batch is consumed by the kernel phase of this
			// same cycle — before any user round can append, on this
			// connection or on the next borrower of the object — so a kept
			// one-slot backing is safely reused in place.
			io.rdBufs = keepOneSlot(io.rdBufs)
		}
		if c.txBytes > 0 && !c.issued && !c.stalled && !c.closed && c.handle != 0 {
			c.issued = true
			from := len(p.backs)
			p.backs = io.appendBacks(p.backs)
			api.Sendv(c.handle, io.txq[io.txHead:], p.backs[from:])
		}
		c.putIO()
	}
	p.dirty = p.dirty[:0]
}

func (p *program) processResult(r *core.SyscallResult) {
	switch r.Type {
	case core.SysConnect:
		c := p.tab.Lookup(r.Cookie)
		if c == nil {
			return
		}
		if r.Err != nil {
			// The kernel also appends an EvConnected(false) condition for
			// a failed connect; that event — processed later this same
			// Run — delivers the single OnConnected callback and releases
			// the arena. Reporting here too would double the failure.
			return
		}
		c.handle = r.Handle
		p.bindHandle(c)
		// Outcome arrives via the connected event condition.
	case core.SysSendv:
		c := p.byHandleLookup(r.Handle)
		if c == nil {
			return
		}
		c.issued = false
		accepted := r.N
		if r.Err != nil {
			accepted = 0
		}
		c.consumeTx(accepted)
		if c.txBytes > 0 {
			// Trimmed by the sliding window: wait for `sent` to
			// re-issue (§4.3).
			c.stalled = true
		}
		// A deferred orderly close fires once the vector drains.
		c.finishClose()
	}
}

// fireSendReady delivers the writable-again condition to armed writers
// whose shortfall cleared: pending-send budget reopened and — for
// pool-blocked writers — the thread's chunk pool can allocate again.
// Writers still blocked re-queue in order, so delivery stays FIFO and
// deterministic and no wake is a spin.
func (p *program) fireSendReady() {
	w := p.waiters
	p.waiters = nil
	for i, c := range w {
		w[i] = nil
		if c.p != p {
			// Migrated away mid-round; the new home re-armed it.
			continue
		}
		if c.closed || c.closing {
			c.wantReady = false
			c.blockedPool = false
			continue
		}
		if MaxPendingSend-c.txBytes <= 0 || (c.blockedPool && !p.txchunk.Ready()) {
			p.waiters = append(p.waiters, c)
			continue
		}
		c.wantReady = false
		c.blockedPool = false
		p.api.Charge(dispatchCost)
		p.sendReady.OnSendReady(c)
	}
}

// consumeTx retires n bytes the kernel accepted from the transmit
// vector. Pending bytes imply a non-empty vector, so the I/O state is
// attached whenever a sendv result arrives.
func (c *conn) consumeTx(n int) {
	c.txBytes -= int32(n)
	if c.txBytes < 0 {
		c.txBytes = 0
	}
	c.io.consumeTx(n)
}

func (io *connIO) consumeTx(n int) {
	head := int(io.txHead)
	for n > 0 && head < len(io.txq) {
		e := io.txq[head]
		if len(e) <= n {
			n -= len(e)
			io.txq[head] = nil
			head++
		} else {
			io.txq[head] = e[n:]
			n = 0
		}
	}
	if head == len(io.txq) {
		// Fully drained (every entry nil'd above). In the request-response
		// steady state contiguous views merge into a single scatter-gather
		// entry, which is the backing that is kept.
		io.txq = keepOneSlot(io.txq)
		head = 0
	} else if head >= 32 && head*2 >= len(io.txq) {
		// A flow-controlled connection that never fully drains would
		// otherwise grow the dead prefix forever; compact the live
		// entries to the front.
		k := copy(io.txq, io.txq[head:])
		for i := k; i < len(io.txq); i++ {
			io.txq[i] = nil
		}
		io.txq = io.txq[:k]
		head = 0
	}
	io.txHead = int32(head)
}

func (p *program) processEvent(ev *core.Event) {
	p.api.Charge(dispatchCost)
	switch ev.Type {
	case core.EvKnock:
		c := &conn{p: p, handle: ev.Handle}
		p.bindHandle(c)
		// Accept with the conn's table id as kernel cookie so later
		// events resolve with one bounds-checked indexed load (the
		// Table 1 cookie design, minus the interface box).
		p.api.Accept(ev.Handle, p.tab.Grant(c))
		p.handler.OnAccept(c)
	case core.EvConnected:
		c := p.resolve(ev)
		if c == nil {
			return
		}
		if !ev.Outcome {
			p.unbindHandle(c)
			p.tab.Revoke(ev.Cookie)
			c.closed = true
			c.dropIO()
			p.handler.OnConnected(c, false)
			return
		}
		p.handler.OnConnected(c, true)
	case core.EvRecv:
		c := p.resolve(ev)
		if c == nil {
			// Connection vanished (e.g. aborted earlier in this batch);
			// still recycle the buffer.
			if ev.Mbuf != nil {
				ev.Mbuf.Unref()
			}
			return
		}
		p.handler.OnRecv(c, ev.Data)
		// Recycle as soon as the handler returns (copying semantics);
		// batched into one recv_done per round.
		c.rdBytes += int32(ev.Bytes)
		io := c.getIO()
		if ev.Mbuf != nil {
			io.rdBufs = append(io.rdBufs, ev.Mbuf)
		}
		c.markDirty()
	case core.EvSent:
		c := p.resolve(ev)
		if c == nil {
			return
		}
		// tx_sent: the ACK-driven reclamation step. The kernel dropped
		// its references to these arena bytes when the cumulative ACK
		// trimmed its retransmission queue; advance the release cursor,
		// returning drained chunks to the pool.
		if ev.Released > 0 && c.io != nil {
			c.io.arena.Release(ev.Released)
			c.putIO()
		}
		if c.stalled && ev.Window > 0 {
			c.stalled = false
			if c.txBytes > 0 {
				c.markDirty()
			}
		}
		p.handler.OnSent(c, ev.Bytes)
	case core.EvEOF:
		c := p.resolve(ev)
		if c == nil {
			return
		}
		p.handler.OnEOF(c)
	case core.EvDead:
		c := p.resolve(ev)
		if c == nil {
			return
		}
		p.unbindHandle(c)
		p.tab.Revoke(ev.Cookie)
		c.closed = true
		// The kernel dropped the connection's retransmission queue with
		// the flow, so nothing references the arena any more; receive
		// buffers still pending from this batch recycle locally — the
		// handle is already revoked, so a recv_done for it would be
		// rejected before the kernel's own Unref loop ran (leaking the
		// delivery references taken for EvRecv).
		c.rdBytes = 0
		c.dropIO()
		p.handler.OnClosed(c)
	case core.EvTimer:
		if ev.Fn != nil {
			ev.Fn()
		}
	case core.EvMigrated:
		// The id resolves in the shared table regardless of which
		// thread's program granted it — the property that makes
		// cross-thread flow migration safe under compact cookies.
		c := p.tab.Lookup(ev.Cookie)
		if c == nil {
			return
		}
		// Re-home the connection: it now belongs to this thread's
		// program and namespace.
		if c.p != nil && c.p != p {
			c.p.unbindHandle(c)
			c.inDirty = false
		}
		c.p = p
		c.handle = ev.Handle
		c.issued = false
		p.bindHandle(c)
		// In-flight I/O state travels with the connection (and, once
		// drained, joins this program's pool); work it still owes a
		// syscall for is flushed from its new home.
		if c.txBytes > 0 || c.rdBytes > 0 {
			c.markDirty()
		}
		// An armed send-ready condition migrates with the connection:
		// the old program's waiter entry goes stale (c.p moved on) and
		// the new home registers its own.
		if c.wantReady {
			c.wantReady = false
			if p.sendReady != nil {
				c.armSendReady(c.blockedPool)
			} else {
				c.blockedPool = false
			}
		}
	}
}

// resolve finds the libix conn for an event via its cookie (fast path) or
// its handle.
//
//ix:hotpath
func (p *program) resolve(ev *core.Event) *conn {
	if c := p.tab.Lookup(ev.Cookie); c != nil {
		return c
	}
	return p.byHandleLookup(ev.Handle)
}

// String aids debugging.
func (c *conn) String() string {
	return fmt.Sprintf("libix.conn(h=%#x pend=%d stalled=%v)", c.handle, c.txBytes, c.stalled)
}
