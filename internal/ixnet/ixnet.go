// Package ixnet is a net-compatible blocking facade over the
// event-driven stacks: ixnet.Conn implements net.Conn (blocking
// Read/Write/Close plus the SetDeadline family), ixnet.Listener
// implements net.Listener, and ixnet.Dialer blocks until the handshake
// resolves. Applications written purely against net.Conn — an HTTP
// server, a redis-style client — run unmodified on IX, Linux and mTCP.
//
// The bridge is deterministic green threads (see fiber.go): blocking
// calls park the calling fiber and stack events resume it — EvRecv
// wakes readers, the writable-again condition (ACK-driven arena release
// reopening MaxPendingSend, kernel sndbuf draining below its cap) wakes
// writers, timer-service deadlines fire os.ErrDeadlineExceeded, accept
// events wake acceptors. Wakeups drain from a FIFO run queue, so the
// interleaving is a pure function of the event sequence and fixed-seed
// runs stay byte-identical. Fibers are coroutines, not scheduled
// goroutines: this package has no go statement, channel or sync import.
package ixnet

import (
	"time"

	"ix/internal/app"
)

// Net is one elastic thread's entry to the blocking facade. The main
// function handed to Factory receives it; fibers it spawns share it.
// All methods must be called on the owning thread (from its fibers or
// its timer callbacks) — never across threads.
type Net struct {
	env    app.Env
	s      sched
	thread int
	lis    *Listener
}

// Factory adapts a blocking main function to the event-driven app
// contract. main runs as the thread's root fiber: it may Listen and
// loop over Accept, Dial and drive connections, spawn more fibers with
// Go — every blocking call parks the fiber until the corresponding
// stack event. One main instance runs per elastic thread.
func Factory(main func(n *Net)) app.Factory {
	return func(env app.Env, thread, _ int) app.Handler {
		n := &Net{env: env, thread: thread}
		n.s.spawn(func() { main(n) })
		// Run the root fiber to its first park at start of day so
		// listeners exist before the first SYN arrives.
		n.s.pump()
		return &handler{n: n}
	}
}

// Thread returns this thread's index on its host.
func (n *Net) Thread() int { return n.thread }

// Now returns the simulation clock as a time.Time (nanoseconds since
// the virtual epoch) — the clock deadlines are measured against.
func (n *Net) Now() time.Time { return time.Unix(0, n.env.Now()) }

// Charge accounts application CPU time on the thread's core.
func (n *Net) Charge(d time.Duration) { n.env.Charge(d) }

// Go spawns fn as a new fiber on this thread. Legal from fiber or
// simulation context; the fiber starts at the next pump.
func (n *Net) Go(fn func()) {
	n.s.spawn(fn)
	n.s.pump()
}

// Sleep parks the calling fiber for d of virtual time.
func (n *Net) Sleep(d time.Duration) {
	f := n.s.current()
	n.after(d, func() { n.s.wake(f) })
	n.s.park()
}

// after schedules fn on the thread's timer service and pumps the
// fibers it wakes (timer callbacks run in simulation context).
func (n *Net) after(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	n.env.After(d, func() {
		fn()
		n.s.pump()
	})
}

// handler adapts stack events to fiber wakeups. Every callback mutates
// facade state, marks the affected fibers runnable, then pumps. Pumps
// route through the conn's owning Net (c.n), not the delivering
// thread's: under IX connection migration events can arrive on a
// different elastic thread than the one whose fibers own the conn, and
// threads on one host share an engine, so running the owner's fibers
// from here keeps exactly one party running.
type handler struct {
	n *Net
}

var (
	_ app.Handler          = (*handler)(nil)
	_ app.SendReadyHandler = (*handler)(nil)
)

func (h *handler) conn(ac app.Conn) *Conn {
	c, _ := ac.Cookie().(*Conn)
	return c
}

func (h *handler) OnAccept(ac app.Conn) {
	l := h.n.lis
	if l == nil || l.closed || l.backlog.len() >= l.maxBacklog {
		// No listener (or backlog full): refuse, as a kernel would
		// once the accept queue overflows.
		ac.Abort()
		return
	}
	c := newConn(h.n, ac)
	ac.SetCookie(c)
	l.backlog.push(c)
	l.wakeAcceptor()
	h.n.s.pump()
}

func (h *handler) OnConnected(ac app.Conn, ok bool) {
	c := h.conn(ac)
	if c == nil {
		return
	}
	c.ac = ac
	c.connDone = true
	c.connOK = ok
	if !ok {
		c.dead = true
	}
	if c.abandoned {
		// The dialer timed out and walked away; nobody owns this
		// connection any more.
		if ok {
			ac.Abort()
		}
		return
	}
	if c.dialer != nil {
		c.n.s.wake(c.dialer)
		c.dialer = nil
	}
	c.n.s.pump()
}

func (h *handler) OnRecv(ac app.Conn, data []byte) {
	c := h.conn(ac)
	if c == nil {
		return
	}
	// data is valid only during the callback: copy into the conn's
	// receive buffer before any fiber runs.
	c.rb = append(c.rb, data...)
	c.wakeReader()
	c.n.s.pump()
}

func (h *handler) OnSent(ac app.Conn, acked int) {}

func (h *handler) OnSendReady(ac app.Conn) {
	c := h.conn(ac)
	if c == nil {
		return
	}
	c.wakeWriter()
	c.n.s.pump()
}

func (h *handler) OnEOF(ac app.Conn) {
	c := h.conn(ac)
	if c == nil {
		return
	}
	c.eof = true
	c.wakeReader()
	c.n.s.pump()
}

func (h *handler) OnClosed(ac app.Conn) {
	c := h.conn(ac)
	if c == nil {
		return
	}
	c.dead = true
	if !c.eof && !c.localClosed {
		// Termination with no FIN seen and no local close: the peer
		// reset (or the connection failed under it).
		c.reset = true
	}
	c.wakeReader()
	c.wakeWriter()
	c.n.s.pump()
}
