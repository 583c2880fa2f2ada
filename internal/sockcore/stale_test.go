package sockcore

import (
	"testing"

	"ix/internal/tcp"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// TestSocketDropsItsIDAtDead: a socket names its engine connection by
// id. The terminal event unbinds it, so a socket never reaches the
// connection that reuses its slot; one still naming the old id — a
// missed unbind — panics in a test binary on every call that reaches
// the engine: write (Sendv), close, abort and read (RecvDone).
func TestSocketDropsItsIDAtDead(t *testing.T) {
	o, l := newOwner(SlabSize, &chunkRecorder{})
	l.TCP = tcp.NewStack(tcp.Config{
		LocalIP: wire.Addr4(10, 0, 0, 1),
		Now:     func() int64 { return 0 },
		Wheel:   timerwheel.New(timerwheel.DefaultTick, 0),
		Output:  func(*tcp.Conn, *wire.TCPHeader, [][]byte) {},
		Events:  l,
	})
	dst := wire.Addr4(10, 0, 0, 2)
	s := o.NewSock(nil)
	c, err := l.TCP.Connect(dst, 80, 0)
	s.Open(c, err)
	old := s.conn
	c.Abort() // the failed open's Connected(false) unbinds
	if s.conn != 0 || l.sock(c) != nil {
		t.Fatalf("after the terminal event the socket still names %#x", s.conn)
	}
	c2, err := l.TCP.Connect(dst, 80, 0)
	if err != nil || c2.ID().Slot() != old.Slot() {
		t.Fatalf("the next connection took slot %d, want %d reused", c2.ID().Slot(), old.Slot())
	}
	for _, op := range []struct {
		name string
		do   func()
	}{
		{"write", func() { s.Send([]byte("x")) }},
		{"close", s.Close},
		{"abort", s.Abort},
		{"read", func() { s.stageRcv([]byte("y")); o.dispatch(s) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s through a stale id did not panic", op.name)
				}
			}()
			s.conn, s.flags = old, 0
			op.do()
		}()
	}
	if c2.State() != tcp.StateSynSent {
		t.Fatalf("the slot's new connection is %v", c2.State())
	}
}
