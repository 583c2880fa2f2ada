// Package incast implements the N-to-1 synchronized-sender workload:
// every sender bursts a fixed block at the same virtual instant toward
// one sink behind a shallow-buffered switch egress port, the classic
// TCP incast pattern. Whole windows are tail-dropped at the egress, the
// lost flows stall in retransmission timeout, and goodput collapses —
// the scenario for which the paper cites retransmission timeouts as low
// as 16 µs (§4.2), reproduced here by sweeping tcp.Config.MinRTO.
//
// Synchronization needs no cross-host calls: all hosts share the
// virtual clock, so each sender arms its round-k burst at the absolute
// instant Start + k·Period on its own thread timer and the bursts
// collide at the switch exactly as a barrier-driven original would.
// Completion is receiver-confirmed: the sink replies a one-byte token
// per full block (the reverse path is uncongested), so the measurement
// works identically on all three OS adapters — kernel sockets learn
// nothing about ACK progress, exactly as on Linux.
package incast

import (
	"time"

	"ix/internal/app"
	"ix/internal/stats"
	"ix/internal/wire"
)

// warmBytes is the small pre-measurement ping each sender issues at
// connect: it seeds both ends' RTT estimators so the retransmission
// timeout has collapsed from the 1 ms initial value to ~MinRTO before
// round 0, and its token confirms the connection is live.
const warmBytes = 64

// per-byte/message CPU costs mirror the echo application.
const (
	senderMsgCost = 100 * time.Nanosecond
	perByteCost   = 0.05 // ns per byte
)

// Metrics aggregates the experiment outcome across senders (host Go
// memory shared by all sender threads, like echo.Metrics).
type Metrics struct {
	// Senders is the number of registered sender threads.
	Senders int
	// RoundsDone counts rounds every sender completed; RoundsFailed
	// counts rounds abandoned (a sender missed the next barrier with
	// its block unconfirmed, or its connection died).
	RoundsDone, RoundsFailed stats.Counter
	// SinkBytes counts bytes the sink application received.
	SinkBytes stats.Counter
	// Completion records per-round completion time: last sender's
	// confirmation token minus the synchronized start.
	Completion *stats.Histogram
	// Running gates reconnects and new rounds.
	Running bool

	// Per-round tracking, keyed by round number.
	start   map[int]int64
	entered map[int]int
	skipped map[int]int
	done    map[int]int
	failed  map[int]bool
}

// NewMetrics returns a running metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{
		Completion: stats.NewHistogram(),
		Running:    true,
		start:      map[int]int64{},
		entered:    map[int]int{},
		skipped:    map[int]int{},
		done:       map[int]int{},
		failed:     map[int]bool{},
	}
}

// Every sender accounts for every round exactly once — enter (burst at
// the barrier) or skip (dead/reconnecting at the barrier) — so rounds
// always land in RoundsDone or RoundsFailed and the tracking maps stay
// bounded.

// enter records the round's burst start: the first sender to enter has
// the earliest virtual time.
func (m *Metrics) enter(round int, now int64) {
	if _, ok := m.start[round]; !ok {
		m.start[round] = now
	}
	m.entered[round]++
}

// finish records a confirmation: completion time is the last sender's
// finishing virtual time minus the round start.
func (m *Metrics) finish(round int, now int64) {
	if _, live := m.start[round]; !live {
		return // already settled (e.g. failed and forgotten)
	}
	m.done[round]++
	if m.done[round] == m.Senders && m.entered[round] == m.Senders && !m.failed[round] {
		m.RoundsDone.Inc()
		m.Completion.Record(time.Duration(now - m.start[round]))
		m.forget(round)
		return
	}
	m.settle(round)
}

// skip accounts a barrier a sender could not make (no live connection,
// or it was behind after a reconnect): the round can no longer complete
// cleanly.
func (m *Metrics) skip(round int) {
	m.skipped[round]++
	if !m.failed[round] {
		m.failed[round] = true
		m.RoundsFailed.Inc()
	}
	m.settle(round)
}

func (m *Metrics) fail(round int) {
	if round < 0 || m.failed[round] {
		return
	}
	if _, live := m.start[round]; !live {
		return // already completed and forgotten
	}
	m.failed[round] = true
	m.RoundsFailed.Inc()
	m.settle(round)
}

func (m *Metrics) forget(round int) {
	delete(m.start, round)
	delete(m.entered, round)
	delete(m.skipped, round)
	delete(m.done, round)
	delete(m.failed, round)
}

// settle drops a failed round's tracking once every sender has
// accounted for it (bounded memory under sustained overrun or churn).
func (m *Metrics) settle(round int) {
	if m.failed[round] && m.entered[round]+m.skipped[round] >= m.Senders {
		m.forget(round)
	}
}

// Config parameterizes the sender fleet.
type Config struct {
	ServerIP wire.IPv4
	Port     uint16
	// Burst is the block size each sender transmits per round.
	Burst int
	// Start is the absolute virtual time of round 0's barrier; Period
	// separates successive barriers.
	Start  time.Duration
	Period time.Duration
	// Rounds bounds the experiment (0 = until Metrics.Running clears).
	Rounds  int
	Metrics *Metrics
}

// SinkFactory returns the receiving application: it consumes blocks
// (zero-copy receive with per-byte CPU charge) and confirms each one —
// the warm ping, then every Burst bytes — with a one-byte token.
func SinkFactory(port uint16, burst int, m *Metrics) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		if err := env.Listen(port); err != nil {
			panic(err)
		}
		return &sink{env: env, burst: burst, m: m}
	}
}

type sink struct {
	app.Base
	env   app.Env
	burst int
	m     *Metrics
}

// sinkConn frames the byte stream into confirmable blocks.
type sinkConn struct {
	got, need int
}

func (s *sink) OnAccept(c app.Conn) { c.SetCookie(&sinkConn{need: warmBytes}) }

func (s *sink) OnRecv(c app.Conn, data []byte) {
	s.env.Charge(time.Duration(float64(len(data)) * perByteCost))
	if s.m != nil {
		s.m.SinkBytes.Add(uint64(len(data)))
	}
	st, _ := c.Cookie().(*sinkConn)
	if st == nil {
		return
	}
	st.got += len(data)
	for st.got >= st.need {
		st.got -= st.need
		st.need = s.burst
		s.env.Charge(senderMsgCost)
		c.Send(token[:])
	}
}

var token = [1]byte{0xA5}

// SenderFactory returns one synchronized sender per thread.
func SenderFactory(cfg Config) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		s := &sender{env: env, cfg: cfg, cur: -1}
		cfg.Metrics.Senders++
		s.connect()
		return s
	}
}

type sender struct {
	app.Base
	env  app.Env
	cfg  Config
	conn app.Conn

	warmDone bool
	entered  int    // rounds burst on this connection
	tokens   int    // round confirmations received on this connection
	unsent   []byte // current burst's not-yet-accepted tail
	burstBuf []byte // per-sender zero block backing unsent
	round    int    // next round index to fire
	cur      int    // round in flight (-1 = idle)
	armed    bool
}

func (s *sender) connect() {
	_ = s.env.Connect(s.cfg.ServerIP, s.cfg.Port, nil)
}

func (s *sender) OnConnected(c app.Conn, ok bool) {
	if !ok {
		if s.cfg.Metrics.Running {
			s.connect()
		}
		return
	}
	s.conn = c
	// Warm the RTT estimators before the first barrier; the token
	// confirms liveness.
	c.Send(s.burstBytes(warmBytes))
	s.arm()
}

// arm schedules the next barrier this sender can still make.
func (s *sender) arm() {
	if s.armed || !s.cfg.Metrics.Running {
		return
	}
	if s.cfg.Rounds > 0 && s.round >= s.cfg.Rounds {
		return
	}
	now := s.env.Now()
	at := int64(s.cfg.Start) + int64(s.round)*int64(s.cfg.Period)
	for at <= now {
		// A barrier this sender missed (it was dead or reconnecting):
		// account the skip so the round's bookkeeping still settles.
		s.cfg.Metrics.skip(s.round)
		s.round++
		if s.cfg.Rounds > 0 && s.round >= s.cfg.Rounds {
			return
		}
		at += int64(s.cfg.Period)
	}
	s.armed = true
	s.env.After(time.Duration(at-now), s.fire)
}

// fire is the barrier: burst one block, synchronized with every other
// sender by virtue of the shared virtual clock.
func (s *sender) fire() {
	s.armed = false
	m := s.cfg.Metrics
	if !m.Running {
		return
	}
	k := s.round
	s.round++
	if s.conn == nil {
		// Mid-reconnect at the barrier: skip this round and re-arm.
		m.skip(k)
		s.arm()
		return
	}
	if s.cur >= 0 {
		// Previous round still unconfirmed at the next barrier: the
		// round is abandoned (goodput collapse made it overrun).
		m.fail(s.cur)
	}
	s.cur = k
	s.entered++
	m.enter(k, s.env.Now())
	s.env.Charge(senderMsgCost)
	// Carry any unflushed tail of the abandoned burst: the sink frames
	// blocks purely by byte count, so dropping accepted-ledger bytes
	// would desynchronize every later block boundary on this
	// connection.
	s.unsent = s.burstBytes(s.cfg.Burst + len(s.unsent))
	s.push()
	s.arm()
}

// push offers the burst tail to the stack (large bursts can exceed the
// adapter's pending-send budget; OnSent reopens it).
func (s *sender) push() {
	for len(s.unsent) > 0 {
		n := s.conn.Send(s.unsent)
		if n == 0 {
			return
		}
		s.unsent = s.unsent[n:]
	}
}

// OnRecv consumes confirmation tokens. The stream is serialized — warm
// token first, then one per burst in round order — so the current round
// completes when the token count catches up with the bursts sent.
func (s *sender) OnRecv(c app.Conn, data []byte) {
	for range data {
		if !s.warmDone {
			s.warmDone = true
			continue
		}
		s.tokens++
	}
	if s.cur >= 0 && s.tokens >= s.entered {
		m := s.cfg.Metrics
		m.finish(s.cur, s.env.Now())
		s.cur = -1
	}
}

func (s *sender) OnSent(c app.Conn, n int) { s.push() }

func (s *sender) OnClosed(c app.Conn) {
	m := s.cfg.Metrics
	m.fail(s.cur)
	s.cur = -1
	s.conn = nil
	s.warmDone, s.entered, s.tokens, s.unsent = false, 0, 0, nil
	if m.Running {
		s.connect()
	}
}

// burstBytes returns an immutable zero block (zero-copy senders must not
// mutate transmitted buffers). The buffer is per-sender: each sender
// sizes its own block, so senders share no mutable state.
func (s *sender) burstBytes(n int) []byte {
	for cap(s.burstBuf) < n {
		s.burstBuf = make([]byte, n)
	}
	return s.burstBuf[:n]
}
