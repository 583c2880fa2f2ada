// Package echo implements the microbenchmark application of §5.2–5.4: the
// same benchmark used to evaluate MegaPipe and mTCP. Clients connect to a
// single server port, send a remote request of size s, and wait for an
// echo of the same size; each client performs this synchronous RPC n
// times before closing the connection with a reset (TCP RST) to avoid
// exhausting ephemeral ports. The server holds off its echo until the
// message has been entirely received (as NetPIPE does).
//
// The same handler pair runs on IX, Linux and mTCP via the app interface.
package echo

import (
	"slices"
	"time"

	"ix/internal/app"
	"ix/internal/stats"
	"ix/internal/wire"
)

// Server tuning: the per-message application cost of the trivial echo
// logic (buffer bookkeeping and the send call).
const serverMsgCost = 100 * time.Nanosecond

// perByteCost is the application's per-byte touch cost (it reads the
// request and writes the response from cache).
const perByteCost = 0.05 // ns per byte

// ServerFactory returns an app.Factory serving echo on port with
// expected message size s.
func ServerFactory(port uint16, msgSize int) app.Factory {
	return listen(port, func(env app.Env) app.Handler { return &server{env: env, size: msgSize} })
}

// listen returns a factory whose threads listen on port and serve it
// with the handler h makes.
func listen(port uint16, h func(app.Env) app.Handler) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		if err := env.Listen(port); err != nil {
			panic(err)
		}
		return h(env)
	}
}

type server struct {
	app.Base
	env  app.Env
	size int
	free pool[srvConn]
}

// srvConn counts the bytes of a message that an OnRecv left partial. A
// connection borrows one from its thread's pool only then and returns it
// when the message completes, so between messages its cookie is nil.
type srvConn struct {
	got int
}

func (s *server) OnRecv(c app.Conn, data []byte) {
	st, _ := c.Cookie().(*srvConn)
	got := len(data)
	if st != nil {
		got += st.got
	}
	s.env.Charge(time.Duration(float64(len(data)) * perByteCost))
	for ; got >= s.size; got -= s.size {
		s.env.Charge(serverMsgCost)
		c.Send(zeros(s.size))
	}
	switch {
	case got > 0:
		if st == nil {
			st = s.free.get()
			c.SetCookie(st)
		}
		st.got = got
	case st != nil:
		c.SetCookie(nil)
		s.free.put(st)
	}
}

// pool is a LIFO free list of the records a handler borrows while an
// RPC is in flight: one per thread, so it is never shared, and its size
// follows the thread's peak concurrency, not its connections. get
// returns a cleared record.
type pool[T any] []*T

func (p *pool[T]) get() *T {
	n := len(*p)
	if n == 0 {
		return new(T)
	}
	x := (*p)[n-1]
	*p = (*p)[:n-1]
	*x = *new(T)
	return x
}

func (p *pool[T]) put(x *T) { *p = append(*p, x) }

// VerifyingServerFactory returns an echo server that echoes the exact
// bytes it receives (the plain server replies with zeros of the right
// length). Clients running with Verify on check the response stream
// byte-for-byte against what they sent, so any duplicate, reordered or
// corrupted delivery that leaks through TCP under fault injection is
// caught at the application. msgSize only drives CPU charging.
func VerifyingServerFactory(port uint16, msgSize int) app.Factory {
	return listen(port, func(env app.Env) app.Handler { return &vserver{server{env: env, size: msgSize}} })
}

// vserver is the plain server with its own message handling; its pool
// stays empty.
type vserver struct{ server }

// vconn buffers bytes received but not yet accepted by Send: the echo
// must preserve stream order even when the send budget momentarily
// rejects part of a reply.
type vconn struct {
	pend []byte
	got  int // bytes toward the current message (CPU charging only)
}

func (s *vserver) OnAccept(c app.Conn) { c.SetCookie(&vconn{}) }

func (s *vserver) OnRecv(c app.Conn, data []byte) {
	st := c.Cookie().(*vconn)
	s.env.Charge(time.Duration(float64(len(data)) * perByteCost))
	st.got += len(data)
	for st.got >= s.size {
		st.got -= s.size
		s.env.Charge(serverMsgCost)
	}
	// data is only valid during the callback: push what Send accepts,
	// copy the remainder.
	if len(st.pend) == 0 {
		n := c.Send(data)
		data = data[n:]
	}
	if len(data) > 0 {
		st.pend = append(st.pend, data...)
	}
}

func (s *vserver) OnSent(c app.Conn, n int) {
	st, _ := c.Cookie().(*vconn)
	if st == nil || len(st.pend) == 0 {
		return
	}
	sent := c.Send(st.pend)
	st.pend = st.pend[:copy(st.pend, st.pend[sent:])]
}

// Metrics aggregates client-side results. One instance is shared by all
// client threads of an experiment (host Go memory, not simulated state).
type Metrics struct {
	Msgs     stats.Counter
	Conns    stats.Counter
	Failures stats.Counter
	// VerifyErrors counts response bytes that differed from the request
	// pattern (Verify mode): any duplicate, reordered or corrupted
	// delivery leaking through TCP shows up here.
	VerifyErrors stats.Counter
	// SumMismatches counts rounds whose whole-transfer FNV checksum of
	// received bytes differed from the sent stream's.
	SumMismatches stats.Counter
	// Latency is per-RPC round-trip time.
	Latency *stats.Histogram
	// Running is the stop switch. Once it clears, clients open no
	// connection and start no RPC but the first one of a connection
	// already opening; RPCs in flight complete.
	Running bool
}

// NewMetrics returns a metrics sink with Running set.
func NewMetrics() *Metrics {
	return &Metrics{Latency: stats.NewHistogram(), Running: true}
}

// ResetWindow starts a measurement window.
func (m *Metrics) ResetWindow() {
	m.Msgs.Reset()
	m.Conns.Reset()
	m.Latency.Reset()
}

// ClientConfig parameterizes the echo client load.
type ClientConfig struct {
	ServerIP wire.IPv4
	Port     uint16
	MsgSize  int
	Rounds   int // n round trips per connection, then RST + reconnect; 0 = never
	Conns    int // concurrent connections per client thread
	Metrics  *Metrics

	// Outstanding is how many RPCs the thread keeps in flight, rotating
	// round-robin over its open connections: §5.4's "each thread
	// repeatedly performing a 64B RPC with a variable number of active
	// connections". Zero means Conns, one RPC per connection.
	Outstanding int

	// RampBatch/RampGap override the connection ramp pacing (defaults
	// ConnectBatch/ConnectBatchGap). Large Fig. 4 fleets set these so
	// the aggregate SYN rate stays below the server's ingest capacity;
	// otherwise NIC-edge drops leave establishment to synchronized
	// retransmission waves.
	RampBatch int
	RampGap   time.Duration

	// Verify sends a deterministic per-round byte pattern instead of
	// zeros and checks the response stream byte-for-byte (pair with
	// VerifyingServerFactory). Chaos/fault experiments use this as the
	// end-to-end integrity invariant. VerifySeed diversifies patterns
	// across client threads.
	Verify     bool
	VerifySeed uint64

	// QuietRamp defers all RPC traffic until this thread's target
	// connection population is established: during the ramp, handshake
	// frames have the NIC rings, the event queues and the client CPU to
	// themselves, so establishment runs several times faster than it
	// would while competing with data segments. Traffic starts on the
	// thread the instant its target population is reached (unless the
	// thread is fleet-paused).
	QuietRamp bool

	// Fleet, when non-nil, registers this client thread for
	// cross-sweep-point coordination: a persistent-cluster harness
	// pauses the fleet, drains in-flight RPCs, grows the population by
	// delta establishment and resumes — reusing one warmed testbed
	// across measurement points of ascending size.
	Fleet *Fleet
}

// clientConn tracks one RPC stream while it has an RPC in flight. A
// rotation connection (Rounds 0, no Verify) borrows one from its
// thread's pool when an RPC starts and returns it when the RPC
// completes, so an idle connection's cookie is nil. A rounds-mode
// connection keeps its record through its rounds and returns it when it
// is forgotten. A verify-mode connection's cookie is a verifyConn, which
// embeds it, for the connection's life (see connState). rounds and got
// are int32: a connection's round count and a message's size fit easily.
type clientConn struct {
	t0     int64
	rounds int32
	got    int32
	busy   bool
}

// verifyConn is a verify-mode connection's cookie: the RPC stream and
// its verify state in one object.
type verifyConn struct {
	clientConn
	verifyState
}

// connState resolves c's cookie to its RPC state and, for a verify-mode
// connection, its verify state (nil otherwise). Both are nil for an idle
// connection and for one the client has forgotten.
func connState(c app.Conn) (*clientConn, *verifyState) {
	switch st := c.Cookie().(type) {
	case *clientConn:
		return st, nil
	case *verifyConn:
		return &st.clientConn, &st.verifyState
	}
	return nil, nil
}

// verifyState is a connection's verify-mode state: pat seeds its
// request pattern, buf holds the current round's request bytes, unsent
// its not-yet-accepted tail, txSum/rxSum are running FNV-1a checksums
// of the whole sent/received streams.
type verifyState struct {
	pat          uint64
	buf          []byte
	unsent       []byte
	txSum, rxSum uint64
}

// fnvOffset/fnvPrime are the FNV-1a constants for the whole-transfer
// stream checksums.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(sum uint64, data []byte) uint64 {
	for _, b := range data {
		sum = (sum ^ uint64(b)) * fnvPrime
	}
	return sum
}

// fillPattern writes the deterministic request payload for one round.
func fillPattern(buf []byte, pat uint64, round int) {
	x := pat + uint64(round)*0x9e3779b97f4a7c15
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// ConnectBatch/ConnectBatchGap pace connection ramp-up for large
// connection counts (§5.4 scale): opening tens of thousands of
// connections in one instant would overrun listener SYN backlogs and
// leave establishment to retransmission backoff. Counts up to one batch
// open immediately, exactly as before.
const (
	ConnectBatch    = 64
	ConnectBatchGap = 50 * time.Microsecond
)

// ClientFactory returns an app.Factory generating echo load per cfg.
func ClientFactory(cfg ClientConfig) app.Factory {
	if cfg.Outstanding == 0 {
		cfg.Outstanding = cfg.Conns
	}
	if cfg.RampBatch <= 0 {
		cfg.RampBatch = ConnectBatch
	}
	if cfg.RampGap <= 0 {
		cfg.RampGap = ConnectBatchGap
	}
	return func(env app.Env, thread, threads int) app.Handler {
		c := &client{env: env, cfg: cfg, target: cfg.Conns, quiet: cfg.QuietRamp}
		if cfg.Fleet != nil {
			cfg.Fleet.clients = append(cfg.Fleet.clients, c)
		}
		c.rampStep(c.rampGen)
		return c
	}
}

// rampStep opens one paced batch and schedules the next. gen guards the
// chain: a fleet retarget bumps rampGen, killing stale chains from the
// previous sweep point. Each step recomputes the work from the live
// population (ring + unresolved connects vs target), so a chain ends
// exactly when the target is covered, or when the load stops.
func (cl *client) rampStep(gen uint64) {
	if gen != cl.rampGen || !cl.cfg.Metrics.Running {
		return
	}
	for n := min(cl.target-len(cl.ring)-cl.pending, cl.cfg.RampBatch); n > 0; n-- {
		cl.connect()
	}
	if cl.target-len(cl.ring)-cl.pending > 0 {
		cl.env.After(cl.cfg.RampGap, func() { cl.rampStep(gen) })
	}
}

type client struct {
	app.Base
	env app.Env
	cfg ClientConfig

	// connSeq numbers connections for verify-mode pattern seeding.
	connSeq uint64

	// ring holds the open connections in rotation order; inFlight counts
	// the busy ones, at most cfg.Outstanding. free pools their records.
	ring     []app.Conn
	cursor   int
	inFlight int
	free     pool[clientConn]

	// target is the current connection-population goal; it starts at
	// cfg.Conns and moves with fleet retargets. OnClosed replaces dead
	// connections only while the ring sits below it.
	target int
	// quiet defers RPC issue until the ring reaches target (QuietRamp).
	quiet bool
	// paused stops new RPC issue (in-flight ones finish): the fleet
	// drain state between persistent-cluster measurement points.
	paused bool
	// pending counts connects issued and not yet resolved either way.
	pending int
	// rampGen guards paced ramp chains across retargets.
	rampGen uint64
}

func (cl *client) connect() {
	cl.pending++
	_ = cl.env.Connect(cl.cfg.ServerIP, cl.cfg.Port, nil)
}

func (cl *client) OnConnected(c app.Conn, ok bool) {
	if cl.pending > 0 {
		cl.pending--
	}
	if !ok {
		cl.cfg.Metrics.Failures.Inc()
		if cl.cfg.Metrics.Running {
			cl.connect()
		}
		return
	}
	var st *clientConn
	var v *verifyState
	if cl.cfg.Verify {
		cl.connSeq++
		vc := &verifyConn{verifyState: verifyState{
			pat:   (cl.cfg.VerifySeed + cl.connSeq) * 0xbf58476d1ce4e5b9,
			buf:   make([]byte, cl.cfg.MsgSize),
			txSum: fnvOffset, rxSum: fnvOffset,
		}}
		st, v = &vc.clientConn, &vc.verifyState
		c.SetCookie(vc)
	}
	cl.ring = append(cl.ring, c)
	if cl.quiet {
		// Quiet ramp: hold all traffic until the population is
		// complete, then open the rotation at full outstanding.
		if len(cl.ring) >= cl.target {
			cl.quiet = false
			cl.startRotation()
		}
		return
	}
	if !cl.paused && cl.inFlight < cl.cfg.Outstanding {
		cl.inFlight++
		cl.sendReq(c, st, v)
	}
}

// startRotation opens the rotation window: up to Outstanding RPCs issued
// over the ring (the moment quiet ramp completes, or a fleet resume).
func (cl *client) startRotation() {
	n := min(cl.cfg.Outstanding, len(cl.ring))
	// Bounded by slot count, not inFlight: issueNext gives a slot back
	// when it cannot issue.
	for i := cl.inFlight; i < n; i++ {
		cl.inFlight++
		cl.issueNext()
	}
}

// issueNext launches an RPC on the next idle connection in the ring. It
// gives the in-flight slot back when no connection is idle, the load has
// stopped or the fleet is paused.
func (cl *client) issueNext() {
	for tries := 0; tries < len(cl.ring) && cl.cfg.Metrics.Running && !cl.paused; tries++ {
		c := cl.ring[cl.cursor%len(cl.ring)]
		cl.cursor++
		st, v := connState(c)
		if st != nil && st.busy {
			continue
		}
		cl.sendReq(c, st, v)
		return
	}
	cl.inFlight--
}

// sendReq issues one RPC on c; st is its record, borrowed here when nil,
// and v its verify state (nil unless Verify).
func (cl *client) sendReq(c app.Conn, st *clientConn, v *verifyState) {
	if st == nil {
		st = cl.free.get()
		c.SetCookie(st)
	}
	st.t0 = cl.env.Now()
	st.got = 0
	st.busy = true
	cl.env.Charge(serverMsgCost)
	if v != nil {
		fillPattern(v.buf, v.pat, int(st.rounds))
		n := c.Send(v.buf)
		v.txSum = fnvAdd(v.txSum, v.buf[:n])
		// A short accept leaves a tail to push as OnSent reopens the
		// send budget.
		v.unsent = v.buf[n:]
		return
	}
	c.Send(zeros(cl.cfg.MsgSize))
}

func (cl *client) OnRecv(c app.Conn, data []byte) {
	st, v := connState(c)
	if st == nil {
		return
	}
	if v != nil {
		// Integrity invariant: the response stream must equal the
		// request stream byte-for-byte, at the right positions.
		m := cl.cfg.Metrics
		got := int(st.got)
		if got+len(data) > len(v.buf) {
			m.VerifyErrors.Add(uint64(got + len(data) - len(v.buf)))
			data = data[:len(v.buf)-got]
		}
		for i, b := range data {
			if b != v.buf[got+i] {
				m.VerifyErrors.Inc()
			}
		}
		v.rxSum = fnvAdd(v.rxSum, data)
	}
	st.got += int32(len(data))
	cl.env.Charge(time.Duration(float64(len(data)) * perByteCost))
	if int(st.got) < cl.cfg.MsgSize {
		return
	}
	m := cl.cfg.Metrics
	m.Msgs.Inc()
	m.Latency.Record(time.Duration(cl.env.Now() - st.t0))
	if v != nil && v.rxSum != v.txSum {
		// Whole-transfer checksum over everything this connection ever
		// sent vs received: equal iff the echoed stream is intact.
		m.SumMismatches.Inc()
	}
	st.busy = false
	st.rounds++
	if cl.cfg.Rounds > 0 && int(st.rounds) >= cl.cfg.Rounds {
		// Close with RST to avoid ephemeral-port exhaustion (§5.3). The
		// client forgets the connection, and its slot goes to the
		// replacement.
		m.Conns.Inc()
		cl.drop(c)
		cl.leave(c)
		c.Abort()
		cl.inFlight--
		if m.Running {
			cl.connect()
		}
		return
	}
	if cl.cfg.Rounds == 0 && v == nil {
		cl.drop(c)
	}
	cl.issueNext()
}

// drop clears c's cookie and pools its record, unless the record is part
// of a verifyConn.
func (cl *client) drop(c app.Conn) {
	if st, ok := c.Cookie().(*clientConn); ok {
		cl.free.put(st)
	}
	c.SetCookie(nil)
}

// leave drops c from the ring and reports whether it was there: a
// connection the client has forgotten is not.
func (cl *client) leave(c app.Conn) bool {
	i := slices.Index(cl.ring, c)
	if i >= 0 {
		cl.ring = slices.Delete(cl.ring, i, i+1)
	}
	return i >= 0
}

// OnSent consumes the tx_sent event condition: n request bytes were
// acknowledged by the server and their transmit buffers reclaimed. In
// verify mode it also pushes any request tail a short accept left over.
func (cl *client) OnSent(c app.Conn, n int) {
	if _, v := connState(c); v != nil && len(v.unsent) > 0 {
		k := c.Send(v.unsent)
		v.txSum = fnvAdd(v.txSum, v.unsent[:k])
		v.unsent = v.unsent[k:]
	}
}

// OnClosed handles an unexpected death (OnRecv forgot the connections it
// reset, and they are off the ring): the connection leaves the ring, its
// record and in-flight slot move on, and a replacement holds the
// population at target.
func (cl *client) OnClosed(c app.Conn) {
	if !cl.leave(c) {
		return
	}
	st, _ := connState(c)
	busy := st != nil && st.busy
	cl.drop(c)
	if busy {
		cl.issueNext()
	}
	if cl.cfg.Metrics.Running && len(cl.ring) < cl.target {
		cl.cfg.Metrics.Failures.Inc()
		cl.connect()
	}
}

// retarget moves this thread to a new population target by quiet delta
// establishment; the population only grows, so a target below the open
// connections panics. seed is the thread's slice of the sweep point's
// seed schedule — verify-mode patterns restart from it on every
// connection, surviving ones included, so a point's byte patterns depend
// only on (point seed, thread, connection index), never on sweep history.
func (cl *client) retarget(conns, outstanding int, seed uint64) {
	if conns < len(cl.ring) {
		panic("echo: fleet retarget below the open population")
	}
	cl.rampGen++
	gen := cl.rampGen
	cl.target = conns
	if cap(cl.ring) < conns {
		// Reserve the ring at its target: growing it by append would
		// leave up to half its capacity as slack for the whole point.
		ring := make([]app.Conn, len(cl.ring), conns)
		copy(ring, cl.ring)
		cl.ring = ring
	}
	cl.cfg.Outstanding = outstanding
	cl.cfg.VerifySeed = seed
	cl.connSeq = 0
	if cl.cfg.Verify {
		// Reseed the surviving population: pattern state and stream
		// checksums restart from the new point's schedule, exactly as a
		// cold cluster's connections would start. The fleet is drained
		// (no RPC in flight), so no round straddles the reset.
		for _, c := range cl.ring {
			st, v := connState(c)
			if v == nil {
				continue
			}
			cl.connSeq++
			v.pat = (seed + cl.connSeq) * 0xbf58476d1ce4e5b9
			v.txSum, v.rxSum = fnvOffset, fnvOffset
			st.rounds = 0
		}
	}
	if len(cl.ring) < conns {
		cl.quiet = cl.cfg.QuietRamp
		cl.env.After(0, func() { cl.rampStep(gen) })
	}
}

// Fleet coordinates a client population across the sweep points of a
// persistent-cluster experiment. All methods are host-side (Go memory,
// not simulated state) and must be called between simulation runs;
// actions they trigger are scheduled into each thread's own task context
// so CPU time is charged where the work happens.
type Fleet struct {
	clients []*client
}

// Pause stops new RPC issue fleet-wide; in-flight RPCs finish and park.
func (f *Fleet) Pause() {
	for _, cl := range f.clients {
		cl.paused = true
	}
}

// Resume restarts the rotation on every thread over whatever population
// is established (clearing any unfinished quiet ramp).
func (f *Fleet) Resume() {
	for _, cl := range f.clients {
		cl.paused = false
		cl.quiet = false
		cl.env.After(0, cl.startRotation)
	}
}

// Retarget grows every thread to connsPerThread connections with the
// given rotation depth; a target below a thread's open connections
// panics. seed heads the sweep point's seed schedule; each thread
// derives its slice from it deterministically.
func (f *Fleet) Retarget(connsPerThread, outstanding int, seed uint64) {
	for i, cl := range f.clients {
		cl.retarget(connsPerThread, outstanding, seed+uint64(i+1)*0x9e3779b97f4a7c15)
	}
}

// InFlight sums outstanding RPCs across the fleet (zero once a pause has
// drained).
func (f *Fleet) InFlight() int { return f.sum(func(cl *client) int { return cl.inFlight }) }

// Open sums established connections across the fleet.
func (f *Fleet) Open() int { return f.sum(func(cl *client) int { return len(cl.ring) }) }

// Pending sums connects issued and not yet resolved.
func (f *Fleet) Pending() int { return f.sum(func(cl *client) int { return cl.pending }) }

func (f *Fleet) sum(of func(*client) int) int {
	n := 0
	for _, cl := range f.clients {
		n += of(cl)
	}
	return n
}

// zeroBytes backs every zero-filled payload: it covers every message
// size the repository runs (Fig. 2 tops out at exactly 512 KiB). It is a
// package-level array, so it lives in the binary's zero segment rather
// than the heap, and nothing ever writes it: the stacks copy out of a
// sent buffer and applications treat transmitted buffers as immutable,
// so sharing it across instances shares no mutable state.
var zeroBytes [512 << 10]byte

// zeros returns a read-only view of n zero bytes, n ≤ len(zeroBytes).
func zeros(n int) []byte { return zeroBytes[:n:n] }
