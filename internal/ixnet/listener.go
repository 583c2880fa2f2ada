package ixnet

import (
	"net"
	"os"
	"syscall"
	"time"

	"ix/internal/wire"
)

// DefaultBacklog is the accept-queue depth when ListenBacklog is not
// used; connections arriving beyond it are refused (RST), as a kernel
// accept-queue overflow would.
const DefaultBacklog = 128

// Listener is a blocking net.Listener over the thread's listen port.
type Listener struct {
	n          *Net
	addr       Addr
	backlog    fifo[*Conn]
	maxBacklog int
	waiters    fifo[*fiber] // parked acceptor fibers
	closed     bool
}

var _ net.Listener = (*Listener)(nil)

// Listen binds this thread's stack to port with the default backlog.
// The event API delivers accepts without a port, so each thread
// supports one listener at a time.
func (n *Net) Listen(port uint16) (*Listener, error) {
	return n.ListenBacklog(port, DefaultBacklog)
}

// ListenBacklog is Listen with an explicit accept-queue depth.
func (n *Net) ListenBacklog(port uint16, backlog int) (*Listener, error) {
	if n.lis != nil && !n.lis.closed {
		return nil, syscall.EADDRINUSE
	}
	if err := n.env.Listen(port); err != nil {
		return nil, err
	}
	if backlog < 1 {
		backlog = 1
	}
	l := &Listener{n: n, addr: Addr{Port: port}, maxBacklog: backlog}
	n.lis = l
	return l, nil
}

// Accept blocks until a connection is ready or the listener closes.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		if l.backlog.len() > 0 {
			return l.backlog.pop(), nil
		}
		if l.closed {
			return nil, net.ErrClosed
		}
		l.waiters.push(l.n.s.current())
		l.n.s.park()
	}
}

// Close stops accepting: parked acceptors unblock with net.ErrClosed
// and later arrivals are refused. Connections already accepted (or
// sitting in the backlog, which Accept still drains) are unaffected.
func (l *Listener) Close() error {
	if l.closed {
		return net.ErrClosed
	}
	l.closed = true
	for l.waiters.len() > 0 {
		l.n.s.wake(l.waiters.pop())
	}
	l.n.s.pump()
	return nil
}

// Addr returns the listen address.
func (l *Listener) Addr() net.Addr { return l.addr }

// wakeAcceptor pops one parked acceptor, if any.
func (l *Listener) wakeAcceptor() {
	if l.waiters.len() > 0 {
		l.n.s.wake(l.waiters.pop())
	}
}

// Dialer blocks a fiber until its connection attempt resolves.
type Dialer struct {
	Net *Net
	// Timeout bounds the handshake; zero means none. On expiry Dial
	// returns os.ErrDeadlineExceeded and the late connection, if it
	// ever completes, is aborted.
	Timeout time.Duration
}

// Dial connects to dst:port, blocking until established or failed.
func (d *Dialer) Dial(dst wire.IPv4, port uint16) (net.Conn, error) {
	n := d.Net
	f := n.s.current()
	c := &Conn{n: n, raddr: Addr{IP: dst, Port: port}}
	if err := n.env.Connect(dst, port, c); err != nil {
		return nil, err
	}
	var deadline time.Time
	if d.Timeout > 0 {
		deadline = n.Now().Add(d.Timeout)
		n.after(d.Timeout, func() {
			if !c.connDone && c.dialer != nil {
				n.s.wake(c.dialer)
			}
		})
	}
	for !c.connDone {
		if !deadline.IsZero() && !n.Now().Before(deadline) {
			c.abandoned = true
			c.dialer = nil
			return nil, os.ErrDeadlineExceeded
		}
		c.dialer = f
		n.s.park()
	}
	c.dialer = nil
	if !c.connOK {
		return nil, syscall.ECONNREFUSED
	}
	return c, nil
}

// Dial connects with no timeout.
func (n *Net) Dial(dst wire.IPv4, port uint16) (net.Conn, error) {
	d := Dialer{Net: n}
	return d.Dial(dst, port)
}
