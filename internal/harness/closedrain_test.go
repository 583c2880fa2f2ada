// Regression tests for the Write-then-Close bug family and the
// writable-again (send-ready) event condition, exercised uniformly on
// all three stacks.
//
// The close-drain bug: app.Conn.Close documents an orderly close, but
// each stack used to issue the TCP FIN immediately — sequencing it at
// sndNxt ahead of bytes still queued in the libix txq / kernel sndbuf /
// mTCP user-level sndbuf, which the engine then refused to transmit in
// FIN_WAIT_1. A Write-then-Close in one callback silently lost the tail
// of the stream. The fix defers the FIN until the ACK-driven flush
// drains the buffer.
//
// The backpressure bug: Send used to truncate silently at the pending
// budget with no writable-again signal, leaving bulk writers to poll
// OnSent or spin. app.SendReadyHandler now delivers exactly one wake
// when the connection can accept bytes again.
package harness

import (
	"testing"
	"time"

	"ix/internal/app"
	"ix/internal/wire"
)

// drainSink counts received bytes and EOFs; it never replies. One
// instance per host (single-core hosts in these tests).
type drainSink struct {
	bytes *int
	eofs  *int
}

func sinkFactory(port uint16, bytes, eofs *int) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		if err := env.Listen(port); err != nil {
			panic(err)
		}
		return &drainSink{bytes: bytes, eofs: eofs}
	}
}

func (s *drainSink) OnAccept(c app.Conn)             {}
func (s *drainSink) OnConnected(c app.Conn, ok bool) {}
func (s *drainSink) OnRecv(c app.Conn, data []byte)  { *s.bytes += len(data) }
func (s *drainSink) OnSent(c app.Conn, n int)        {}
func (s *drainSink) OnEOF(c app.Conn)                { *s.eofs++; c.Close() }
func (s *drainSink) OnClosed(c app.Conn)             {}

// closeClient writes one payload and calls Close in the same callback —
// the pattern that used to race the FIN past the queued bytes.
type closeClient struct {
	payload  int
	accepted *int
}

func closeClientFactory(dst wire.IPv4, port uint16, payload int, accepted *int) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		if err := env.Connect(dst, port, nil); err != nil {
			panic(err)
		}
		return &closeClient{payload: payload, accepted: accepted}
	}
}

func (cc *closeClient) OnAccept(c app.Conn) {}
func (cc *closeClient) OnConnected(c app.Conn, ok bool) {
	if !ok {
		panic("closeClient: connect failed")
	}
	*cc.accepted = c.Send(make([]byte, cc.payload))
	c.Close()
}
func (cc *closeClient) OnRecv(c app.Conn, data []byte) {}
func (cc *closeClient) OnSent(c app.Conn, n int)       {}
func (cc *closeClient) OnEOF(c app.Conn)               {}
func (cc *closeClient) OnClosed(c app.Conn)            {}

// TestCloseDrainsQueuedBytes asserts every byte Send accepted before
// Close reaches the peer ahead of the FIN, on each stack.
func TestCloseDrainsQueuedBytes(t *testing.T) {
	const payload = 256 << 10
	for _, arch := range []Arch{ArchIX, ArchLinux, ArchMTCP} {
		t.Run(arch.String(), func(t *testing.T) {
			cl := NewCluster(1)
			var got, eofs, accepted int
			cl.AddHost("server", HostSpec{Arch: arch, Cores: 1, Factory: sinkFactory(9000, &got, &eofs)})
			srvIP := cl.hosts[0].IP()
			cl.AddHost("client", HostSpec{Arch: arch, Cores: 1, Factory: closeClientFactory(srvIP, 9000, payload, &accepted)})
			cl.Start()
			cl.Run(200 * time.Millisecond)
			if accepted < payload/2 {
				t.Fatalf("Send accepted only %d of %d bytes", accepted, payload)
			}
			if got != accepted {
				t.Errorf("server received %d of %d bytes queued before Close (tail lost to the FIN)", got, accepted)
			}
			if eofs != 1 {
				t.Errorf("server saw %d EOFs, want 1 (FIN never arrived?)", eofs)
			}
			if l := cl.Leaks(); l != (Leaks{}) {
				t.Errorf("leaked after drain: %+v", l)
			}
		})
	}
}

// srStats is shared between the send-ready client and the test.
type srStats struct {
	left  int // bytes not yet accepted by Send
	wakes int // OnSendReady deliveries
	spins int // wakes where a retry accepted nothing
}

// srClient pushes a bulk stream through Send, parking on the
// send-ready condition whenever the stack accepts a short write. It
// deliberately ignores OnSent: OnSendReady must be sufficient on its
// own to complete the transfer, and every wake must make progress.
type srClient struct {
	chunk []byte
	st    *srStats
}

func srClientFactory(dst wire.IPv4, port uint16, st *srStats) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		if err := env.Connect(dst, port, nil); err != nil {
			panic(err)
		}
		return &srClient{chunk: make([]byte, 1<<20), st: st}
	}
}

func (cc *srClient) pump(c app.Conn) {
	for cc.st.left > 0 {
		b := cc.chunk
		if cc.st.left < len(b) {
			b = b[:cc.st.left]
		}
		n := c.Send(b)
		cc.st.left -= n
		if n < len(b) {
			return // short write: the send-ready condition is armed
		}
	}
	c.Close()
}

func (cc *srClient) OnAccept(c app.Conn) {}
func (cc *srClient) OnConnected(c app.Conn, ok bool) {
	if !ok {
		panic("srClient: connect failed")
	}
	cc.pump(c)
}
func (cc *srClient) OnRecv(c app.Conn, data []byte) {}
func (cc *srClient) OnSent(c app.Conn, n int)       {}
func (cc *srClient) OnSendReady(c app.Conn) {
	cc.st.wakes++
	before := cc.st.left
	cc.pump(c)
	if cc.st.left == before {
		cc.st.spins++
	}
}
func (cc *srClient) OnEOF(c app.Conn)    {}
func (cc *srClient) OnClosed(c app.Conn) {}

var _ app.SendReadyHandler = (*srClient)(nil)

// TestSendReadyCompletesBlockedWrite asserts a bulk write far beyond
// the pending-send budget completes driven purely by OnSendReady, with
// zero spin wakeups (every delivery lets Send accept more bytes), on
// each stack.
func TestSendReadyCompletesBlockedWrite(t *testing.T) {
	const total = 6 << 20
	for _, arch := range []Arch{ArchIX, ArchLinux, ArchMTCP} {
		t.Run(arch.String(), func(t *testing.T) {
			cl := NewCluster(1)
			var got, eofs int
			st := &srStats{left: total}
			cl.AddHost("server", HostSpec{Arch: arch, Cores: 1, Factory: sinkFactory(9001, &got, &eofs)})
			srvIP := cl.hosts[0].IP()
			cl.AddHost("client", HostSpec{Arch: arch, Cores: 1, Factory: srClientFactory(srvIP, 9001, st)})
			cl.Start()
			cl.Run(500 * time.Millisecond)
			if st.left != 0 {
				t.Fatalf("writer still blocked with %d of %d bytes unaccepted after %d wakes", st.left, total, st.wakes)
			}
			if got != total {
				t.Errorf("server received %d of %d bytes", got, total)
			}
			if st.wakes == 0 {
				t.Errorf("write never blocked: send-ready path not exercised (raise total?)")
			}
			if st.spins != 0 {
				t.Errorf("%d of %d send-ready wakes made no progress (spin)", st.spins, st.wakes)
			}
			t.Logf("%v: %d bytes in %d wakes", arch, total, st.wakes)
			if l := cl.Leaks(); l != (Leaks{}) {
				t.Errorf("leaked after drain: %+v", l)
			}
		})
	}
}
