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
	if got := unsafe.Sizeof(srvConn{}); got > 8 {
		t.Fatalf("echo.srvConn is %d bytes, budget 8", got)
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
	// A plain connection's record has no verify state and exists only
	// while its RPC is in flight.
	h := ClientFactory(ClientConfig{MsgSize: 64, Conns: 1, Metrics: NewMetrics()})(&fakeEnv{}, 0, 1)
	c := &fakeConn{}
	h.OnConnected(c, true)
	if st, v := connState(c); st == nil || v != nil || !st.busy {
		t.Fatalf("plain conn state in flight %v / %v", st, v)
	}
	// Stopped, the rotation issues no next RPC, so the completion leaves
	// the connection idle.
	h.(*client).cfg.Metrics.Running = false
	h.OnRecv(c, make([]byte, 64))
	if c.cookie != nil {
		t.Fatalf("idle plain conn keeps cookie %v", c.cookie)
	}
}

// dial opens n fake connections on cl.
func dial(cl *client, n int) []*fakeConn {
	conns := make([]*fakeConn, n)
	for i := range conns {
		conns[i] = &fakeConn{}
		cl.OnConnected(conns[i], true)
	}
	return conns
}

// records counts cl's RPC records: pooled plus attached to a connection.
func records(cl *client, conns []*fakeConn) int {
	n := len(cl.free)
	for _, c := range conns {
		if c.cookie != nil {
			n++
		}
	}
	return n
}

// TestRotationBorrowsOnlyInFlight: a rotation thread with 3 RPCs in
// flight over 64 connections never holds more than 3 records, and an
// idle connection holds none.
func TestRotationBorrowsOnlyInFlight(t *testing.T) {
	m := NewMetrics()
	cl := ClientFactory(ClientConfig{MsgSize: 64, Conns: 64, Outstanding: 3, Metrics: m})(&fakeEnv{}, 0, 1).(*client)
	conns := dial(cl, 64)
	reply := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		c := conns[i%len(conns)]
		st, _ := connState(c)
		if st == nil || !st.busy {
			continue
		}
		cl.OnRecv(c, reply)
		if n := records(cl, conns); n > 3 {
			t.Fatalf("after %d RPCs: %d records for 3 in flight", m.Msgs.Total(), n)
		}
		for j, c := range conns {
			if st, _ := connState(c); st != nil && !st.busy {
				t.Fatalf("idle connection %d keeps a record", j)
			}
		}
	}
	if m.Msgs.Total() < 300 || cl.inFlight != 3 {
		t.Fatalf("%d RPCs completed, %d in flight", m.Msgs.Total(), cl.inFlight)
	}
}

// TestRoundsKeepRecordUntilForgotten: a rounds-mode connection keeps one
// record through its rounds and returns it when it is forgotten.
func TestRoundsKeepRecordUntilForgotten(t *testing.T) {
	cl := ClientFactory(ClientConfig{MsgSize: 64, Conns: 1, Rounds: 3, Metrics: NewMetrics()})(&fakeEnv{}, 0, 1).(*client)
	c := dial(cl, 1)[0]
	first := c.cookie
	for round := 1; round < 3; round++ {
		cl.OnRecv(c, make([]byte, 64))
		if c.cookie != first || len(cl.free) != 0 {
			t.Fatalf("round %d: cookie %v (first %v), %d pooled", round, c.cookie, first, len(cl.free))
		}
	}
	cl.OnRecv(c, make([]byte, 64))
	if c.cookie != nil || len(cl.ring) != 0 || len(cl.free) != 1 || any(cl.free[0]) != first {
		t.Fatalf("forgotten: cookie %v, ring %d, pool %v", c.cookie, len(cl.ring), cl.free)
	}
}

// TestIdleDeathReplaced: an idle connection (nil cookie) that dies leaves
// the ring and is replaced while the load runs; a forgotten one is not.
func TestIdleDeathReplaced(t *testing.T) {
	m := NewMetrics()
	cl := ClientFactory(ClientConfig{MsgSize: 64, Conns: 4, Outstanding: 1, Rounds: 2, Metrics: m})(&fakeEnv{}, 0, 1).(*client)
	conns := dial(cl, 4)
	idle := conns[3]
	if idle.cookie != nil {
		t.Fatalf("idle connection has cookie %v", idle.cookie)
	}
	cl.OnClosed(idle)
	if len(cl.ring) != 3 || cl.pending != 1 || m.Failures.Total() != 1 {
		t.Fatalf("idle death: ring %d, pending %d, failures %d", len(cl.ring), cl.pending, m.Failures.Total())
	}
	busy := conns[0]
	cl.OnRecv(busy, make([]byte, 64)) // round 1: the rotation reissues on it
	cl.OnRecv(busy, make([]byte, 64)) // round 2: forgotten and replaced
	if busy.cookie != nil || len(cl.ring) != 2 || cl.pending != 2 {
		t.Fatalf("forget: cookie %v, ring %d, pending %d", busy.cookie, len(cl.ring), cl.pending)
	}
	cl.OnClosed(busy)
	if len(cl.ring) != 2 || cl.pending != 2 || m.Failures.Total() != 1 {
		t.Fatalf("forgotten death: ring %d, pending %d, failures %d", len(cl.ring), cl.pending, m.Failures.Total())
	}
}

// TestServerBorrowsOnlyForPartialMessage: a whole message in one OnRecv
// borrows nothing; a message split over two borrows one record and
// returns it.
func TestServerBorrowsOnlyForPartialMessage(t *testing.T) {
	s := ServerFactory(9000, 64)(&fakeEnv{}, 0, 1).(*server)
	c := &fakeConn{}
	s.OnAccept(c)
	s.OnRecv(c, make([]byte, 64))
	if c.cookie != nil || len(s.free) != 0 || len(c.out) != 64 {
		t.Fatalf("whole message: cookie %v, pool %d, echoed %d", c.cookie, len(s.free), len(c.out))
	}
	s.OnRecv(c, make([]byte, 100))
	if st, _ := c.cookie.(*srvConn); st == nil || st.got != 36 || len(c.out) != 128 {
		t.Fatalf("partial message: cookie %v, echoed %d", c.cookie, len(c.out))
	}
	s.OnRecv(c, make([]byte, 28))
	if c.cookie != nil || len(s.free) != 1 || len(c.out) != 192 {
		t.Fatalf("completed message: cookie %v, pool %d, echoed %d", c.cookie, len(s.free), len(c.out))
	}
}

// TestZeroAllocEchoRotation: once warm, a full RPC allocates nothing on
// either side: the client's borrow and return, and a server message
// that arrives in two pieces.
func TestZeroAllocEchoRotation(t *testing.T) {
	const n = 8
	s := ServerFactory(9000, 64)(&fakeEnv{}, 0, 1).(*server)
	cl := ClientFactory(ClientConfig{MsgSize: 64, Conns: n, Outstanding: 1, Metrics: NewMetrics()})(&fakeEnv{}, 0, 1).(*client)
	conns := dial(cl, n)
	peers := make([]*fakeConn, n)
	for i := range peers {
		peers[i] = &fakeConn{}
	}
	rpc := func() {
		for i, c := range conns {
			if c.cookie == nil {
				continue
			}
			p := peers[i]
			s.OnRecv(p, c.out[:20])
			s.OnRecv(p, c.out[20:])
			c.out = c.out[:0]
			cl.OnRecv(c, p.out)
			p.out = p.out[:0]
			return
		}
		t.Fatal("no RPC in flight")
	}
	for i := 0; i < 2*n; i++ {
		rpc()
	}
	if a := testing.AllocsPerRun(100, rpc); a != 0 {
		t.Fatalf("one RPC allocates %v times", a)
	}
}
