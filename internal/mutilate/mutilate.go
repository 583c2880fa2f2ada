// Package mutilate reproduces the measurement methodology of §5.5: a
// distributed load generator that coordinates many client threads to
// place a selected load (requests per second) on a memcached server,
// while one separate, unloaded agent issues one request at a time to
// measure response latency. Clients may pipeline up to four requests per
// connection to sustain their target rate, exactly as the paper permits.
//
// Two Facebook-derived workloads are provided (Atikoglu et al.,
// SIGMETRICS '12): ETC (20–70 B keys, 1 B–1 KB values, 75% GETs) and USR
// (<20 B keys, 2 B values, 99% GETs — nearly all minimum-size packets).
package mutilate

import (
	"bytes"
	"strconv"
	"time"

	"ix/internal/app"
	"ix/internal/apps/memcached"
	"ix/internal/stats"
	"ix/internal/wire"
)

// Workload describes key/value sizes and the GET fraction.
type Workload struct {
	Name           string
	KeyMin, KeyMax int
	ValMin, ValMax int
	GetFrac        float64
	// Keys is the keyspace size.
	Keys int
}

// ETC is Facebook's highest-capacity deployment: 20–70 B keys, 1 B–1 KB
// values, 75% GET.
var ETC = Workload{Name: "ETC", KeyMin: 20, KeyMax: 70, ValMin: 1, ValMax: 1024, GetFrac: 0.75, Keys: 8192}

// USR is the GET-dominated deployment: short keys, 2 B values, 99% GET;
// almost all traffic is minimum-sized TCP packets.
var USR = Workload{Name: "USR", KeyMin: 8, KeyMax: 19, ValMin: 2, ValMax: 2, GetFrac: 0.99, Keys: 8192}

// KeyFor builds the deterministic key for index i: digits then 'k'
// padding up to the workload's length for that index.
func (w Workload) KeyFor(i int) string {
	var buf [64]byte
	return string(w.appendKey(buf[:0], i))
}

// ValFor builds the deterministic value for index i.
func (w Workload) ValFor(i int) []byte {
	return w.appendVal(make([]byte, 0, w.valLen(i)), i)
}

// appendKey appends KeyFor(i) to b.
//
//ix:hotpath
func (w Workload) appendKey(b []byte, i int) []byte {
	ln := w.KeyMin
	if w.KeyMax > w.KeyMin {
		ln += i % (w.KeyMax - w.KeyMin + 1)
	}
	start := len(b)
	b = strconv.AppendInt(b, int64(i), 10)
	for len(b)-start < ln {
		b = append(b, 'k')
	}
	return b
}

// valLen is the length of ValFor(i).
func (w Workload) valLen(i int) int {
	ln := w.ValMin
	if w.ValMax > w.ValMin {
		// Log-skewed sizes: most values small, a tail of large ones.
		span := w.ValMax - w.ValMin
		x := (i*2654435761 + 12345) & 0xffff
		frac := float64(x) / 65536.0
		frac = frac * frac // square to skew small
		ln += int(frac * float64(span))
	}
	return ln
}

// alphabet holds the value bytes: byte j of ValFor(i) is
// alphabet[(i+j)%26].
const alphabet = "abcdefghijklmnopqrstuvwxyz"

// appendVal appends ValFor(i) to b, a run of the alphabet at a time.
//
//ix:hotpath
func (w Workload) appendVal(b []byte, i int) []byte {
	n := w.valLen(i)
	run := alphabet[i%len(alphabet):]
	for n > 0 {
		if len(run) > n {
			run = run[:n]
		}
		b = append(b, run...)
		n -= len(run)
		run = alphabet
	}
	return b
}

// appendGet appends the get request for key i to b.
//
//ix:hotpath
func (w Workload) appendGet(b []byte, i int) []byte {
	b = w.appendKey(append(b, "get "...), i)
	return append(b, "\r\n"...)
}

// appendSet appends the set request storing ValFor(i) under key i to b.
//
//ix:hotpath
func (w Workload) appendSet(b []byte, i int) []byte {
	b = w.appendKey(append(b, "set "...), i)
	b = append(b, " 0 0 "...)
	b = strconv.AppendInt(b, int64(w.valLen(i)), 10)
	b = w.appendVal(append(b, "\r\n"...), i)
	return append(b, "\r\n"...)
}

// Preload installs the full keyspace into a store (done out-of-band
// before measurement, as mutilate's loadonly pass does).
func Preload(store *memcached.Store, w Workload) {
	for i := 0; i < w.Keys; i++ {
		store.SetDirect(w.KeyFor(i), w.ValFor(i))
	}
}

// Metrics aggregates results across all load threads and the agent.
type Metrics struct {
	// Responses counts completed requests on load connections.
	Responses stats.Counter
	// AgentLatency is the unloaded agent's response-time histogram —
	// the latency the paper reports.
	AgentLatency *stats.Histogram
	// LoadLatency is response time seen by loaded connections.
	LoadLatency *stats.Histogram
	// Tap, when non-nil, receives a copy of every load-latency sample —
	// an independently reset histogram for control loops (the
	// multi-tenant arbiter) reading short windowed percentiles without
	// disturbing the measurement window.
	Tap *stats.Histogram
	// Dropped counts requests skipped because all pipelines were full
	// (target unreachable).
	Dropped stats.Counter
	Running bool
}

// NewMetrics returns a metrics sink with Running set.
func NewMetrics() *Metrics {
	return &Metrics{
		AgentLatency: stats.NewHistogram(),
		LoadLatency:  stats.NewHistogram(),
		Running:      true,
	}
}

// ResetWindow begins a measurement window.
func (m *Metrics) ResetWindow() {
	m.Responses.Reset()
	m.Dropped.Reset()
	m.AgentLatency.Reset()
	m.LoadLatency.Reset()
}

// LoadConfig parameterizes load-generating threads.
type LoadConfig struct {
	ServerIP wire.IPv4
	Port     uint16
	Workload Workload
	// Conns is connections per client thread.
	Conns int
	// TargetRPS is this thread's share of the offered load.
	TargetRPS float64
	// Schedule, when non-nil, overrides TargetRPS each pacing tick with
	// the offered load (requests/s, this thread's share) as a function of
	// virtual time — the load ramps of the elastic-scaling experiments.
	Schedule func(now int64) float64
	// Pipeline is the max outstanding requests per connection (§5.5
	// allows up to 4).
	Pipeline int
	Metrics  *Metrics
	Seed     uint64
}

// pending is one outstanding request.
type pending struct {
	t0  int64
	get bool
}

// lconn is per-connection client state.
type lconn struct {
	q   []pending
	buf []byte
}

type loadgen struct {
	env   app.Env
	cfg   LoadConfig
	conns []app.Conn
	rng   uint64
	// pacing
	budget float64
	next   int    // round-robin cursor
	paceFn func() // g.pace, bound once: a method value made per tick allocates
	// req is the scratch requests are built in; Send copies it out
	// before returning.
	req []byte
}

// clientReqCost is the client-side CPU per request (build + parse).
const clientReqCost = 900 * time.Nanosecond

// tick is the pacing quantum.
const tick = 100 * time.Microsecond

// LoadFactory builds load-generator threads.
func LoadFactory(cfg LoadConfig) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		g := &loadgen{env: env, cfg: cfg, rng: cfg.Seed ^ (uint64(thread)+1)*0x9e3779b97f4a7c15}
		for i := 0; i < cfg.Conns; i++ {
			_ = env.Connect(cfg.ServerIP, cfg.Port, nil)
		}
		// Stagger thread phases so independent generators don't tick in
		// lock-step (synchronized bursts would inflate tails).
		stagger := time.Duration(g.rand() % uint64(tick))
		g.paceFn = g.pace
		env.After(tick+stagger, g.paceFn)
		return g
	}
}

func (g *loadgen) rand() uint64 {
	g.rng ^= g.rng << 13
	g.rng ^= g.rng >> 7
	g.rng ^= g.rng << 17
	return g.rng
}

// pace issues this tick's request budget across connections.
func (g *loadgen) pace() {
	m := g.cfg.Metrics
	if !m.Running {
		return
	}
	rate := g.cfg.TargetRPS
	if g.cfg.Schedule != nil {
		rate = g.cfg.Schedule(g.env.Now())
	}
	g.budget += rate * tick.Seconds()
	issued := 0
	tries := 0
	for g.budget >= 1 && len(g.conns) > 0 && tries < 2*len(g.conns) {
		c := g.conns[g.next%len(g.conns)]
		g.next++
		tries++
		st := c.Cookie().(*lconn)
		if len(st.q) >= g.cfg.Pipeline {
			continue
		}
		g.issue(c, st)
		g.budget--
		issued++
		tries = 0
	}
	if g.budget >= 1 {
		// All pipelines full: the offered load exceeds capacity.
		m.Dropped.Add(uint64(g.budget))
		g.budget = 0
	}
	g.env.After(tick, g.paceFn)
}

// issue sends one randomized request on c.
//
//ix:hotpath
func (g *loadgen) issue(c app.Conn, st *lconn) {
	w := &g.cfg.Workload
	i := int(g.rand() % uint64(w.Keys))
	get := float64(g.rand()%10000)/10000.0 < w.GetFrac
	g.env.Charge(clientReqCost)
	if get {
		g.req = w.appendGet(g.req[:0], i)
	} else {
		g.req = w.appendSet(g.req[:0], i)
	}
	c.Send(g.req)
	st.q = append(st.q, pending{t0: g.env.Now(), get: get})
}

func (g *loadgen) OnAccept(c app.Conn) {}

func (g *loadgen) OnConnected(c app.Conn, ok bool) {
	if !ok {
		return
	}
	c.SetCookie(&lconn{})
	g.conns = append(g.conns, c)
}

// OnRecv matches complete responses to the pending queue, parsing
// straight from data unless an earlier arrival left a tail.
func (g *loadgen) OnRecv(c app.Conn, data []byte) {
	st, _ := c.Cookie().(*lconn)
	if st == nil {
		return
	}
	if len(st.buf) > 0 {
		st.buf = append(st.buf, data...)
		data = st.buf
	}
	for len(st.q) > 0 {
		n := consumeResponse(data, st.q[0].get)
		if n == 0 {
			break
		}
		g.env.Charge(clientReqCost / 2)
		m := g.cfg.Metrics
		m.Responses.Inc()
		rtt := time.Duration(g.env.Now() - st.q[0].t0)
		m.LoadLatency.Record(rtt)
		if m.Tap != nil {
			m.Tap.Record(rtt)
		}
		data = data[n:]
		// Pop by copying down: the queue holds at most Pipeline entries
		// and keeps its backing.
		st.q = st.q[:copy(st.q, st.q[1:])]
	}
	st.buf = append(st.buf[:0], data...)
	if len(st.buf) == 0 {
		st.buf = nil
	}
}

func (g *loadgen) OnSent(c app.Conn, n int) {}
func (g *loadgen) OnEOF(c app.Conn)         { c.Close() }
func (g *loadgen) OnClosed(c app.Conn)      {}

// AgentConfig parameterizes the unloaded latency agent.
type AgentConfig struct {
	ServerIP wire.IPv4
	Port     uint16
	Workload Workload
	Metrics  *Metrics
	Seed     uint64
}

// AgentFactory builds the unloaded latency-sampling agent: one
// connection, one outstanding GET at a time.
func AgentFactory(cfg AgentConfig) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		if thread != 0 {
			return nopHandler{}
		}
		a := &agent{env: env, cfg: cfg, rng: cfg.Seed | 1}
		_ = env.Connect(cfg.ServerIP, cfg.Port, nil)
		return a
	}
}

type agent struct {
	env app.Env
	cfg AgentConfig
	rng uint64
	t0  int64
	buf []byte
	req []byte // request scratch, as loadgen's
}

func (a *agent) rand() uint64 {
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 7
	a.rng ^= a.rng << 17
	return a.rng
}

func (a *agent) issue(c app.Conn) {
	w := a.cfg.Workload
	a.t0 = a.env.Now()
	a.env.Charge(clientReqCost)
	a.req = w.appendGet(a.req[:0], int(a.rand()%uint64(w.Keys)))
	c.Send(a.req)
}

func (a *agent) OnAccept(c app.Conn) {}

func (a *agent) OnConnected(c app.Conn, ok bool) {
	if ok {
		a.issue(c)
	}
}

func (a *agent) OnRecv(c app.Conn, data []byte) {
	if len(a.buf) > 0 {
		a.buf = append(a.buf, data...)
		data = a.buf
	}
	n := consumeResponse(data, true)
	a.buf = append(a.buf[:0], data[n:]...)
	if len(a.buf) == 0 {
		a.buf = nil
	}
	if n == 0 {
		return
	}
	a.cfg.Metrics.AgentLatency.Record(time.Duration(a.env.Now() - a.t0))
	if a.cfg.Metrics.Running {
		a.issue(c)
	}
}

func (a *agent) OnSent(c app.Conn, n int) {}
func (a *agent) OnEOF(c app.Conn)         { c.Close() }
func (a *agent) OnClosed(c app.Conn)      {}

type nopHandler struct{}

func (nopHandler) OnAccept(app.Conn)          {}
func (nopHandler) OnConnected(app.Conn, bool) {}
func (nopHandler) OnRecv(app.Conn, []byte)    {}
func (nopHandler) OnSent(app.Conn, int)       {}
func (nopHandler) OnEOF(app.Conn)             {}
func (nopHandler) OnClosed(app.Conn)          {}

// consumeResponse returns the byte length of one complete memcached
// response at the front of buf, or 0 if incomplete. get selects the
// expected response family. A malformed line counts as one response.
//
//ix:hotpath
func consumeResponse(buf []byte, get bool) int {
	if !get {
		// STORED\r\n (or an error line)
		return lineLen(buf)
	}
	// Either "END\r\n" (miss) or "VALUE k f n\r\n<data>\r\nEND\r\n".
	nl := lineLen(buf)
	if nl == 0 {
		return 0
	}
	line := buf[:nl-2]
	if len(line) >= 3 && string(line[:3]) == "END" {
		return nl
	}
	if len(line) > 6 && string(line[:6]) == "VALUE " {
		// The byte count is the last space-separated field.
		n, ok := memcached.ParseCount(line[bytes.LastIndexByte(line, ' ')+1:], memcached.MaxItemSize)
		if !ok {
			return nl
		}
		total := nl + n + 2 + 5 // data + \r\n + END\r\n
		if len(buf) < total {
			return 0
		}
		return total
	}
	return nl
}

// lineLen returns the length of the first CRLF-terminated line including
// the CRLF, or 0.
func lineLen(buf []byte) int {
	if i := bytes.Index(buf, crlf); i >= 0 {
		return i + 2
	}
	return 0
}

var crlf = []byte("\r\n")
