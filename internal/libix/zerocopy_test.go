package libix

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"ix/internal/app"
	"ix/internal/core"
	"ix/internal/mem"
	"ix/internal/sim"
	"ix/internal/wire"
)

// pingPong is a minimal echo pair for the steady-state allocation test:
// the client sends a 64-byte request, the server echoes it, the client
// counts the completed RPC and immediately sends the next. No maps, no
// histograms — only the libix/dataplane machinery under test.
type pingServer struct{}

func (pingServer) OnAccept(c app.Conn)            {}
func (pingServer) OnConnected(c app.Conn, b bool) {}
func (pingServer) OnRecv(c app.Conn, data []byte) { c.Send(data) }
func (pingServer) OnSent(c app.Conn, n int)       {}
func (pingServer) OnEOF(c app.Conn)               { c.Close() }
func (pingServer) OnClosed(c app.Conn)            {}

type pingClient struct {
	msg   []byte
	got   int
	rpcs  int
	acked int
}

func (p *pingClient) OnAccept(c app.Conn) {}
func (p *pingClient) OnConnected(c app.Conn, ok bool) {
	if ok {
		c.Send(p.msg)
	}
}
func (p *pingClient) OnRecv(c app.Conn, data []byte) {
	p.got += len(data)
	if p.got >= len(p.msg) {
		p.got = 0
		p.rpcs++
		c.Send(p.msg)
	}
}
func (p *pingClient) OnSent(c app.Conn, n int) { p.acked += n }
func (p *pingClient) OnEOF(c app.Conn)         { c.Close() }
func (p *pingClient) OnClosed(c app.Conn)      {}

// TestSendChargesOnlyAcceptedBytes: a Send that overruns the
// pending-send limit reports (and buffers, and charges) only the
// accepted prefix — the truncated tail must not be charged or appear in
// the arena.
func TestSendChargesOnlyAcceptedBytes(t *testing.T) {
	var firstN, secondN, unsentAt int
	serverF := func(env app.Env, th, n int) app.Handler {
		_ = env.Listen(80)
		return pingServer{}
	}
	clientF := func(env app.Env, th, n int) app.Handler {
		cli := &recorder{env: env}
		cli.onConn = func(c app.Conn, ok bool) {
			if !ok {
				t.Error("connect failed")
				return
			}
			big := make([]byte, 700<<10)
			firstN = c.Send(big)
			secondN = c.Send(big)
			unsentAt = c.(*conn).Unsent()
		}
		_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
		return cli
	}
	eng, a, b := pair(t, serverF, clientF)
	a.Start()
	b.Start()
	eng.RunUntil(sim.Time(time.Millisecond))
	if firstN != 700<<10 {
		t.Fatalf("first Send accepted %d, want %d", firstN, 700<<10)
	}
	if want := MaxPendingSend - 700<<10; secondN != want {
		t.Fatalf("second Send accepted %d, want the remaining budget %d", secondN, want)
	}
	if unsentAt > MaxPendingSend {
		t.Fatalf("pending bytes %d exceed the limit %d", unsentAt, MaxPendingSend)
	}
}

// TestZeroAllocLibixEchoSteadyState: the complete libix RPC cycle —
// Send into the TX arena, coalesced sendv, TCP segment tracking, wire
// transmit, echo, ACK-driven arena release via the sent event condition,
// mbuf recycling via batched recv_done — performs zero heap allocations
// per message once warm. This locks in the zero-copy TX path: the
// pre-arena libix allocated a fresh buffer per Send.
func TestZeroAllocLibixEchoSteadyState(t *testing.T) {
	cli := &pingClient{msg: make([]byte, 64)}
	serverF := func(env app.Env, th, n int) app.Handler {
		if err := env.Listen(80); err != nil {
			t.Error(err)
		}
		return pingServer{}
	}
	clientF := func(env app.Env, th, n int) app.Handler {
		_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
		return cli
	}
	eng, a, b := pair(t, serverF, clientF)
	a.Start()
	b.Start()

	// Warm up: pools provision, ring backings size themselves, the RPC
	// loop reaches steady state.
	until := sim.Time(2 * time.Millisecond)
	eng.RunUntil(until)
	if cli.rpcs == 0 {
		t.Fatal("ping-pong did not start")
	}

	const window = 500 * time.Microsecond
	startRPCs := cli.rpcs
	var windows int
	allocs := testing.AllocsPerRun(20, func() {
		windows++
		until = until.Add(window)
		eng.RunUntil(until)
	})
	rpcs := cli.rpcs - startRPCs
	if rpcs < 100 {
		t.Fatalf("only %d RPCs across the measurement windows", rpcs)
	}
	if cli.acked == 0 {
		t.Fatal("no tx_sent progress reported")
	}
	perMsg := allocs * float64(windows) / float64(rpcs)
	t.Logf("%d RPCs, %.2f allocs/window, %.4f allocs/msg", rpcs, allocs, perMsg)
	if allocs != 0 {
		t.Fatalf("steady-state echo allocates %.2f per %v window (%.4f/msg), want 0",
			allocs, window, perMsg)
	}
}

// TestZeroAllocKnockResolve: an event raised in its flow's knock batch,
// before the accept tagged the flow, carries no cookie and resolves by
// handle among the round's knocks to the conn and the id it was granted,
// without allocating; a handle no knock names resolves to nothing.
func TestZeroAllocKnockResolve(t *testing.T) {
	p := &program{}
	for h := uint64(1); h <= 8; h++ {
		p.knocks = append(p.knocks, knock{&conn{p: p, handle: h << 32}, h + 100})
	}
	hit := core.Event{Type: core.EvDead, Handle: 5 << 32}
	miss := core.Event{Type: core.EvDead, Handle: 9 << 32}
	if c, id := p.resolve(&hit); c != p.knocks[4].c || id != 105 {
		t.Fatalf("knocked handle resolved to %v, id %d; want the fifth knock, id 105", c, id)
	}
	if c, id := p.resolve(&miss); c != nil || id != 0 {
		t.Fatalf("unknown handle resolved to %v, id %d", c, id)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.resolve(&hit)
		p.resolve(&miss)
	})
	if allocs != 0 {
		t.Fatalf("knock-batch lookup allocates %.2f per pair of events, want 0", allocs)
	}
}

// TestTxqBoundedWithoutDrain: a connection whose sends never fully
// drain (flow-controlled, always the newest message pending) holds
// transmit state bounded by what is pending, not by its lifetime: at
// most two chunks, and one or two pending views.
func TestTxqBoundedWithoutDrain(t *testing.T) {
	pool := mem.NewTxChunkPool(mem.NewRegion(4), 0)
	io := &connIO{}
	io.arena.Init(pool)
	for i := 0; i < 2000; i++ {
		io.arena.Write(make([]byte, 64))
		if i > 0 {
			// The kernel takes one message and the peer acknowledges it.
			io.arena.Took(64)
			io.arena.Release(64)
		}
		sg, _ := io.arena.Pending(nil, nil)
		if len(sg) < 1 || len(sg) > 2 || io.arena.Chunks() > 2 {
			t.Fatalf("iteration %d: %d pending views over %d chunks, want 1-2 over at most 2", i, len(sg), io.arena.Chunks())
		}
	}
	if n := pool.InUse(); n > 2 {
		t.Fatalf("%d chunks held for one pending message", n)
	}
}

// TestPushTxMergesContiguousRuns: any number of consecutive arena
// appends to one chunk coalesce into a single scatter-gather entry (a
// pairs-only merge would spill multi-message rounds into the TCP
// engine's heap-allocated extra-fragment path).
func TestPushTxMergesContiguousRuns(t *testing.T) {
	pool := mem.NewTxChunkPool(mem.NewRegion(4), 0)
	io := &connIO{}
	io.arena.Init(pool)
	for i := 0; i < 5; i++ {
		if io.arena.Write(make([]byte, 64)) != 64 {
			t.Fatal("append failed")
		}
	}
	sg, _ := io.arena.Pending(nil, nil)
	if len(sg) != 1 {
		t.Fatalf("5 contiguous appends produced %d SG entries, want 1", len(sg))
	}
	if got := len(sg[0]); got != 320 {
		t.Fatalf("merged entry holds %d bytes, want 320", got)
	}
}

// TestAbortRecyclesPendingRecvBufs: data and RST arriving in one RX
// batch deliver EvRecv (which takes a buffer reference) and EvDead in
// the same user phase; the dead connection's pending receive buffers
// must recycle locally — its handle is revoked, so a recv_done for it
// would be rejected before the kernel's Unref loop (a pool leak under
// client-abort churn). A background ping-pong load keeps the server's
// core busy so an aborting client's two frames coalesce into one batch.
func TestAbortRecyclesPendingRecvBufs(t *testing.T) {
	serverF := func(env app.Env, th, n int) app.Handler {
		_ = env.Listen(80)
		return pingServer{}
	}
	storm := &abortStorm{load: &pingClient{msg: make([]byte, 64)}, max: 200}
	clientF := func(env app.Env, th, n int) app.Handler {
		storm.env = env
		_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, storm.load) // background load
		// A concurrent wave of aborters overloads the server so that one
		// connection's data segments and RST share an RX batch.
		for i := 0; i < 32; i++ {
			_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
		}
		return storm
	}
	eng, a, b := pair(t, serverF, clientF)
	a.Start()
	b.Start()
	eng.RunUntil(sim.Time(20 * time.Millisecond))
	if storm.aborted < 100 {
		t.Fatalf("only %d aborts ran", storm.aborted)
	}
	if got := b.Thread(0).Pool().InUse(); got != 0 {
		t.Fatalf("server thread leaks %d mbufs after %d aborts with pending recv buffers",
			got, storm.aborted)
	}
}

// abortStorm drives one steady ping-pong connection (tagged with the
// load cookie) plus a stream of short-lived connections that burst data
// and RST together, racing EvRecv against EvDead on the server.
type abortStorm struct {
	env     app.Env
	load    *pingClient
	aborted int
	max     int
}

func (s *abortStorm) OnAccept(c app.Conn) {}
func (s *abortStorm) OnConnected(c app.Conn, ok bool) {
	if c.Cookie() == any(s.load) {
		s.load.OnConnected(c, ok)
		return
	}
	if !ok {
		return
	}
	// Send a multi-segment burst, then RST one round later so the data
	// is genuinely in flight when the reset chases it.
	c.Send(make([]byte, 8<<10))
	s.env.After(2*time.Microsecond, c.Abort)
	s.aborted++
	if s.aborted < s.max {
		s.env.After(10*time.Microsecond, func() {
			_ = s.env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
		})
	}
}
func (s *abortStorm) OnRecv(c app.Conn, data []byte) {
	if c.Cookie() == any(s.load) {
		s.load.OnRecv(c, data)
	}
}
func (s *abortStorm) OnSent(c app.Conn, n int) {}
func (s *abortStorm) OnEOF(c app.Conn)         { c.Close() }
func (s *abortStorm) OnClosed(c app.Conn)      {}

// TestBacksNameEachEntrysChunk: the backing sendv names for each pending
// scatter-gather entry is the chunk the entry's bytes lie in — after
// runs that fill, straddle and open chunks, and after the kernel has
// taken part of them — so a frame carrying an entry by reference pins
// the memory it reads.
func TestBacksNameEachEntrysChunk(t *testing.T) {
	pool := mem.NewTxChunkPool(mem.NewRegion(4), 0)
	io := &connIO{}
	io.arena.Init(pool)
	send := func(n int) { io.arena.Write(make([]byte, n)) }
	send(5000)
	send(mem.TxChunkSize) // straddles into a second chunk
	send(2 * mem.TxChunkSize)
	checkBacks(t, "after three sends", io)
	io.arena.Took(5000 + mem.TxChunkSize/2)
	checkBacks(t, "after a partial sendv", io)
	sg, _ := io.arena.Pending(nil, nil)
	io.arena.Took(len(sg[0]))
	send(100)
	checkBacks(t, "after a send into the open chunk", io)
}

// checkBacks fails t unless the backing sendv names for each pending
// scatter-gather entry is the chunk the entry lies in, in that chunk's
// current host buffer.
func checkBacks(t *testing.T, when string, io *connIO) {
	t.Helper()
	sg, backs := io.arena.Pending(nil, nil)
	if len(backs) != len(sg) {
		t.Fatalf("%s: %d backings for %d entries", when, len(backs), len(sg))
	}
	for i, e := range sg {
		// The chunk's host buffer is its unexported buf field.
		buf := reflect.ValueOf(backs[i].(*mem.TxChunk)).Elem().FieldByName("buf")
		base, p := buf.Pointer(), uintptr(unsafe.Pointer(&e[0]))
		if p < base || p+uintptr(len(e)) > base+uintptr(buf.Cap()) {
			t.Fatalf("%s: entry %d of %d does not lie in the buffer of the chunk named for it", when, i, len(sg))
		}
	}
}

// TestTxqFollowsChunkGrowth: messages sent in one cycle grow the write
// chunk's host buffer while the bytes they coalesce with are still
// pending. The pending entries are still one per chunk, each in its
// chunk's current buffer, and the bytes that reach the peer are the
// bytes sent: an entry left pointing into the buffer the chunk grew out
// of would not cover the new bytes.
func TestTxqFollowsChunkGrowth(t *testing.T) {
	sizes := []int{64, 300, 1000, 5000, 12000, 20000}
	var sent []byte
	for i, n := range sizes {
		for j := 0; j < n; j++ {
			sent = append(sent, byte(i*31+j*7))
		}
	}
	var srv *recorder
	serverF := func(env app.Env, th, n int) app.Handler {
		_ = env.Listen(80)
		srv = &recorder{env: env}
		return srv
	}
	clientF := func(env app.Env, th, n int) app.Handler {
		cli := &recorder{env: env}
		cli.onConn = func(c app.Conn, ok bool) {
			if !ok {
				t.Error("connect failed")
				return
			}
			// One handler call, so one cycle: nothing reaches the kernel
			// until every message is queued.
			off := 0
			for i, n := range sizes {
				if got := c.Send(sent[off : off+n]); got != n {
					t.Fatalf("send %d accepted %d of %d bytes", i, got, n)
				}
				off += n
				checkBacks(t, "after send "+strconv.Itoa(i), c.(*conn).io)
			}
			io := c.(*conn).io
			sg, _ := io.arena.Pending(nil, nil)
			if got, want := len(sg), io.arena.Chunks(); got != want {
				t.Fatalf("%d pending entries over %d chunks, want one per chunk", got, want)
			}
			var queued []byte
			for _, e := range sg {
				queued = append(queued, e...)
			}
			if !bytes.Equal(queued, sent) {
				t.Fatal("the pending entries' bytes differ from the bytes sent")
			}
		}
		_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
		return cli
	}
	eng, a, b := pair(t, serverF, clientF)
	a.Start()
	b.Start()
	eng.RunUntil(sim.Time(5 * time.Millisecond))
	if len(srv.recvd) != 1 {
		t.Fatalf("server saw %d connections, want 1", len(srv.recvd))
	}
	for _, got := range srv.recvd {
		if !bytes.Equal(got, sent) {
			t.Fatalf("peer received %d bytes that differ from the %d sent", len(got), len(sent))
		}
	}
}
