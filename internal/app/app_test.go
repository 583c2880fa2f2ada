package app

import "testing"

// closeCounter is a Conn that records Close and Abort.
type closeCounter struct{ closes, aborts int }

func (c *closeCounter) Send(b []byte) int { return len(b) }
func (c *closeCounter) Close()            { c.closes++ }
func (c *closeCounter) Abort()            { c.aborts++ }
func (c *closeCounter) Cookie() any       { return nil }
func (c *closeCounter) SetCookie(any)     {}

// embedder is the shape every application takes: Base plus its own
// OnRecv.
type embedder struct{ Base }

func (embedder) OnRecv(Conn, []byte) {}

// TestBaseArmsNoSendReady: adapters arm the writable-again condition
// for exactly the handlers that implement SendReadyHandler, so Base
// must not supply it, neither alone nor through an embedding handler.
func TestBaseArmsNoSendReady(t *testing.T) {
	for _, h := range []any{Base{}, &Base{}, embedder{}, &embedder{}} {
		if _, ok := h.(SendReadyHandler); ok {
			t.Errorf("%T implements SendReadyHandler", h)
		}
	}
	var _ Handler = embedder{}
}

// TestBaseEOFCloses: the default answer to a peer half-close is one
// orderly Close, and the other defaults touch the connection not at all.
func TestBaseEOFCloses(t *testing.T) {
	c := &closeCounter{}
	var b Base
	b.OnAccept(c)
	b.OnConnected(c, true)
	b.OnSent(c, 64)
	b.OnClosed(c)
	if c.closes != 0 || c.aborts != 0 {
		t.Fatalf("before EOF: %d closes, %d aborts; want none", c.closes, c.aborts)
	}
	b.OnEOF(c)
	if c.closes != 1 || c.aborts != 0 {
		t.Fatalf("after EOF: %d closes, %d aborts; want 1 and 0", c.closes, c.aborts)
	}
}
