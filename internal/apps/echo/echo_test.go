package echo

import (
	"testing"
	"time"
	"unsafe"

	"ix/internal/wire"
)

func TestFillPatternDeterministic(t *testing.T) {
	a, b := make([]byte, 256), make([]byte, 256)
	fillPattern(a, 42, 3)
	fillPattern(b, 42, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same (pat, round) produced different bytes")
		}
	}
	fillPattern(b, 42, 4)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different rounds produced identical patterns")
	}
}

func TestFnvStreamSumPositionSensitive(t *testing.T) {
	// The whole-transfer checksum must catch reordering, not just byte
	// histograms: FNV-1a over a stream is position-sensitive.
	x := fnvAdd(fnvAdd(uint64(fnvOffset), []byte("ab")), []byte("cd"))
	y := fnvAdd(fnvAdd(uint64(fnvOffset), []byte("cd")), []byte("ab"))
	if x == y {
		t.Fatal("stream checksum insensitive to segment order")
	}
	z := fnvAdd(uint64(fnvOffset), []byte("abcd"))
	if x != z {
		t.Fatal("chunking changed the stream checksum")
	}
}

func TestZerosReuse(t *testing.T) {
	a := zeros(64)
	b := zeros(len(zeroBytes))
	if len(a) != 64 || cap(a) != 64 || len(b) != len(zeroBytes) {
		t.Fatal("zeros sizing broken")
	}
	for _, x := range b {
		if x != 0 {
			t.Fatal("zeros not zero")
		}
	}
}

func TestMetricsWindow(t *testing.T) {
	m := NewMetrics()
	m.Msgs.Add(10)
	m.ResetWindow()
	m.Msgs.Add(5)
	if m.Msgs.Since() != 5 || m.Msgs.Total() != 15 {
		t.Fatal("window accounting broken")
	}
}

// TestConnStateSizes pins the per-connection client state: one exists
// per open connection of a Fig. 4 fleet, so growth is a reviewed
// decision (DESIGN.md, "Per-connection memory budget").
func TestConnStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(clientConn{}); got > 24 {
		t.Fatalf("echo.clientConn is %d bytes, budget 24", got)
	}
}

// fakeEnv is an app.Env that records scheduled callbacks instead of
// running them.
type fakeEnv struct {
	now   int64
	after []func()
}

func (e *fakeEnv) Now() int64                           { return e.now }
func (e *fakeEnv) Charge(time.Duration)                 {}
func (e *fakeEnv) Elapsed() time.Duration               { return 0 }
func (e *fakeEnv) Connect(wire.IPv4, uint16, any) error { return nil }
func (e *fakeEnv) Listen(uint16) error                  { return nil }
func (e *fakeEnv) After(_ time.Duration, fn func())     { e.after = append(e.after, fn) }

// fakeConn keeps everything sent to it.
type fakeConn struct {
	cookie any
	out    []byte
}

func (c *fakeConn) Send(b []byte) int { c.out = append(c.out, b...); return len(b) }
func (c *fakeConn) Close()            {}
func (c *fakeConn) Abort()            {}
func (c *fakeConn) Cookie() any       { return c.cookie }
func (c *fakeConn) SetCookie(v any)   { c.cookie = v }

// TestRetargetReservesRing: a fleet retarget reserves each thread's
// rotation ring at exactly the new target, keeping the open population,
// and filling the ring to target never grows it again.
func TestRetargetReservesRing(t *testing.T) {
	env := &fakeEnv{}
	fleet := &Fleet{}
	ClientFactory(ClientConfig{Outstanding: 1, QuietRamp: true, MsgSize: 64, Metrics: NewMetrics(), Fleet: fleet})(env, 0, 1)
	cl := fleet.clients[0]
	var open []*fakeConn
	connect := func(n int) {
		for i := 0; i < n; i++ {
			c := &fakeConn{}
			open = append(open, c)
			cl.OnConnected(c, true)
		}
	}
	fleet.Retarget(3, 1, 1)
	connect(3)
	const target = 1737
	fleet.Retarget(target, 3, 2)
	if len(cl.ring) != 3 || cap(cl.ring) != target {
		t.Fatalf("after retarget: ring len %d cap %d, want 3 and %d", len(cl.ring), cap(cl.ring), target)
	}
	for i, c := range open {
		if cl.ring[i] != c {
			t.Fatalf("ring slot %d lost its connection", i)
		}
	}
	connect(target - 3)
	if len(cl.ring) != target || cap(cl.ring) != target {
		t.Fatalf("at target: ring len %d cap %d, want %d", len(cl.ring), cap(cl.ring), target)
	}
}

// TestVerifyStateThroughCookie: a verify-mode connection's cookie
// carries its verify state, so an intact echo completes the RPC cleanly
// and a corrupted one is counted; a plain connection's cookie has none.
func TestVerifyStateThroughCookie(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		m := NewMetrics()
		env := &fakeEnv{}
		h := ClientFactory(ClientConfig{MsgSize: 64, Rounds: 2, Conns: 1, Verify: true, VerifySeed: 9, Metrics: m})(env, 0, 1)
		c := &fakeConn{}
		h.OnConnected(c, true)
		if st, v := connState(c); st == nil || v == nil || !st.busy {
			t.Fatalf("verify conn state %v / %v", st, v)
		}
		if len(c.out) != 64 {
			t.Fatalf("request is %d bytes, want 64", len(c.out))
		}
		echo := append([]byte(nil), c.out...)
		if corrupt {
			echo[10] ^= 0xff
		}
		h.OnRecv(c, echo)
		if m.Msgs.Total() != 1 {
			t.Fatalf("msgs = %d, want 1", m.Msgs.Total())
		}
		wantErr := uint64(0)
		if corrupt {
			wantErr = 1
		}
		if m.VerifyErrors.Total() != wantErr || m.SumMismatches.Total() != wantErr {
			t.Fatalf("corrupt=%v: verify errors %d, sum mismatches %d", corrupt,
				m.VerifyErrors.Total(), m.SumMismatches.Total())
		}
	}
	h := ClientFactory(ClientConfig{MsgSize: 64, Metrics: NewMetrics()})(&fakeEnv{}, 0, 1)
	c := &fakeConn{}
	h.OnConnected(c, true)
	if st, v := connState(c); st == nil || v != nil {
		t.Fatalf("plain conn state %v / %v", st, v)
	}
}
