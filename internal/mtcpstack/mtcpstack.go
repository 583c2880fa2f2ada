// Package mtcpstack models mTCP (Jeong et al., NSDI '14), the
// state-of-the-art user-level TCP stack the paper compares against: each
// core runs a dedicated TCP thread that polls the NIC DPDK-style and
// exchanges *batched* event and job queues with the application thread at
// relatively coarse granularity. The aggressive batching amortizes
// switching overheads and delivers high packet rates, but events and
// writes sit in the handoff queues for tens of microseconds — the
// latency-for-throughput trade §2.3 and §5.2 describe ("mTCP uses
// aggressive batching to offset the cost of context switching, which
// comes at the expense of higher latency").
//
// The same TCP protocol engine as IX and the Linux model runs underneath.
package mtcpstack

import (
	"time"

	"ix/internal/app"
	"ix/internal/cost"
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/netstack"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/tcp"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// pollBatch is the TCP thread's per-round packet budget (mTCP uses large
// I/O batches).
const pollBatch = 2048

// sndbufMax bounds the per-connection user-level send buffer.
const sndbufMax = 4 << 20

// rcvKeep bounds the receive backing a drained connBuf keeps for its
// next borrower: request-response messages fit and recycle
// allocation-free, while a bulk transfer's grown buffer is released.
const rcvKeep = 2 << 10

// Config describes an mTCP host.
type Config struct {
	Name string
	IP   wire.IPv4
	MAC  wire.MAC
	// Cores is the number of core pairs (TCP thread + app thread per
	// core, as mTCP deploys).
	Cores int
	// Cost is the mTCP cost model.
	Cost cost.MTCP
	// Factory builds the per-thread application.
	Factory app.Factory
	// Seed, RcvWnd, MinRTO, MemPages tune the stack.
	Seed     uint64
	RcvWnd   int
	MinRTO   time.Duration
	MemPages int
	NICRing  int
	// ExpectedConns is the anticipated host-wide flow population; each
	// core presizes its connection tables for its RSS share (0 = grow
	// on demand).
	ExpectedConns int
}

// Host is one mTCP machine.
type Host struct {
	eng    *sim.Engine
	cfg    Config
	nic    *nicsim.NIC
	arp    *netstack.ARPTable
	region *mem.Region
	cores  []*mcore
	// missFloor is the handshake-frame miss charge (batched SYN
	// admission), a run constant hoisted out of the poll loop.
	missFloor time.Duration
}

// New builds an mTCP host. Attach NIC ports before Start.
func New(eng *sim.Engine, cfg Config) *Host {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Cost == (cost.MTCP{}) {
		cfg.Cost = cost.DefaultMTCP()
	}
	if cfg.MemPages <= 0 {
		cfg.MemPages = 512
	}
	h := &Host{
		eng:       eng,
		cfg:       cfg,
		arp:       netstack.NewARPTable(),
		region:    mem.NewRegion(cfg.MemPages),
		missFloor: time.Duration(cost.MissesPerMsg(0) * float64(cfg.Cost.L3Miss)),
	}
	h.nic = nicsim.New(eng, cfg.MAC, nicsim.Config{
		Queues:   cfg.Cores,
		RingSize: cfg.NICRing,
	})
	return h
}

// NIC returns the host NIC.
func (h *Host) NIC() *nicsim.NIC { return h.nic }

// ARP returns the host ARP table.
func (h *Host) ARP() *netstack.ARPTable { return h.arp }

// IP returns the host address.
func (h *Host) IP() wire.IPv4 { return h.cfg.IP }

// MAC returns the hardware address.
func (h *Host) MAC() wire.MAC { return h.cfg.MAC }

// Start spawns the per-core thread pairs.
func (h *Host) Start() {
	for i := 0; i < h.cfg.Cores; i++ {
		h.cores = append(h.cores, newMcore(h, i))
	}
	for _, m := range h.cores {
		m.handler = h.cfg.Factory(m.env(), m.id, h.cfg.Cores)
		m.sendReady, _ = m.handler.(app.SendReadyHandler)
		m.kickApp()
	}
}

// Cores returns the core count.
func (h *Host) Cores() int { return len(h.cores) }

// Stack returns core i's network stack (started hosts only).
func (h *Host) Stack(i int) *netstack.Stack { return h.cores[i].ns }

// MbufsInUse sums the receive mbufs still referenced across every core's
// pool: zero once traffic has quiesced.
func (h *Host) MbufsInUse() int {
	n := 0
	for _, m := range h.cores {
		n += m.pool.InUse()
	}
	return n
}

// ConnCount sums live connections.
func (h *Host) ConnCount() int {
	n := 0
	for _, m := range h.cores {
		n += m.ns.TCP().ConnCount()
	}
	return n
}

// mcore is one core pair: the mTCP TCP thread and its application thread.
type mcore struct {
	h    *Host
	id   int
	core *sim.Core

	ns    *netstack.Stack
	wheel *timerwheel.Wheel
	pool  *mem.MbufPool
	rxq   *nicsim.RxQueue
	txq   *nicsim.TxQueue

	handler app.Handler
	// sendReady is the handler's optional writable-again extension
	// (nil when not implemented).
	sendReady app.SendReadyHandler

	// mconns is the core's connection table: the TCP engine's cookie is
	// a compact slot id (index+1) into it, not an interface box. Per
	// core because each mcore owns a private TCP stack (mTCP's
	// shared-nothing design). Freed slots recycle LIFO.
	mconns    []*mconn
	mconnFree []uint32
	// bufFree recycles connBuf objects between connections with bytes
	// queued (LIFO, so the hot ones stay cache-warm).
	bufFree []*connBuf
	// sg is the one-element scatter-gather scratch a connection's
	// sndbuf flush hands the TCP engine (consumed before it returns).
	sg [1][]byte

	// Event queue: TCP thread → app thread (batched).
	evQ        []*mconn
	appPending bool

	// Job queue: app thread → TCP thread (batched writes/connects).
	jobQ       []func()
	tcpPending bool
	tcpQueued  bool // a TCP round is scheduled right now

	outFrames []*fabric.Frame
	txPending []*fabric.Frame
	txSpare   []*fabric.Frame
	tcpMore   bool
	curMeter  *sim.Meter

	// Bound callbacks, created once (method values allocate).
	tcpFn      func(*sim.Meter)
	timerFired func()

	timerWake *sim.Event
}

func newMcore(h *Host, id int) *mcore {
	m := &mcore{
		h:     h,
		id:    id,
		core:  sim.NewCore(h.eng, id),
		pool:  mem.NewMbufPool(h.region, id),
		wheel: timerwheel.New(timerwheel.DefaultTick, int64(h.eng.Now())),
	}
	expected := 0
	if n := h.cfg.ExpectedConns; n > 0 {
		expected = n / h.cfg.Cores
		m.mconns = make([]*mconn, 0, expected)
	}
	m.tcpFn = m.tcpRound
	m.timerFired = m.onTimerWake
	m.rxq = h.nic.RxQueue(id)
	m.txq = h.nic.TxQueue(id)
	m.rxq.Mode = nicsim.ModePoll
	m.rxq.OnFrame = m.wakeTCP
	m.ns = netstack.New(netstack.Config{
		LocalIP:   h.cfg.IP,
		LocalMAC:  h.cfg.MAC,
		Now:       func() int64 { return int64(h.eng.Now()) },
		Wheel:     m.wheel,
		SendFrame: func(f *fabric.Frame) { m.outFrames = append(m.outFrames, f) },
		Events:    (*mtcpEvents)(m),
		ARP:       h.arp,
		Seed:      h.cfg.Seed + uint64(id)*0x9e3779b97f4a7c15,
		RcvWnd:    h.cfg.RcvWnd,
		MinRTO:    h.cfg.MinRTO,

		ExpectedConns: expected,
		PortOK: func(p uint16, dst wire.IPv4, dport uint16) bool {
			// mTCP also partitions flows per core (it splits the
			// ephemeral port space by RSS, like IX).
			ret := wire.FlowKey{SrcIP: dst, DstIP: h.cfg.IP, SrcPort: dport, DstPort: p, Proto: wire.ProtoTCP}
			return h.nic.RSSQueue(ret) == id
		},
	})
	return m
}

// wakeTCP schedules a TCP thread poll round (the TCP thread polls, so the
// reaction to NIC arrivals is immediate).
func (m *mcore) wakeTCP() {
	if m.tcpQueued {
		return
	}
	m.tcpQueued = true
	m.core.Submit(sim.ClassTCPThread, m.tcpFn)
}

// tcpRound is one TCP-thread iteration: drain the job queue from the app,
// process a packet batch, run timers, emit frames.
func (m *mcore) tcpRound(meter *sim.Meter) {
	m.tcpQueued = false
	m.tcpPending = false
	m.curMeter = meter
	c := &m.h.cfg.Cost
	meter.Charge(c.PollRound)

	// Application jobs first (writes queued since last round).
	jobs := m.jobQ
	m.jobQ = nil
	for _, j := range jobs {
		meter.Charge(c.QueueOp)
		j()
	}

	frames := m.rxq.Take(pollBatch)
	m.rxq.PostDescriptors(len(frames))
	miss := time.Duration(cost.MissesPerMsg(m.h.ConnCount()) * float64(c.L3Miss))
	for _, f := range frames {
		buf := m.pool.Alloc()
		if buf == nil {
			f.Release()
			continue
		}
		buf.Adopt(f)
		// Handshake frames charge the miss floor (batched SYN
		// admission); see the linuxstack napiPoll note.
		if nicsim.IsTCPSYN(f.Data) {
			meter.Charge(c.ProtoRx + m.h.missFloor)
		} else {
			meter.Charge(c.ProtoRx + miss)
		}
		m.ns.Input(buf)
		buf.Unref()
	}
	m.wheel.Advance(int64(m.h.eng.Now()))
	// mTCP acks from the TCP thread, independent of the app.
	m.ns.Flush()
	m.curMeter = nil
	m.tcpMore = m.rxq.Len() > 0
	m.txPending = m.outFrames
	m.outFrames = m.txSpare[:0]
	m.txSpare = nil
	meter.AtEndCall(mEndTCPRound, m)
}

// mEndTCPRound posts the round's frames and re-arms polling (pooled
// one-shot end action, no closure).
func mEndTCPRound(a any) {
	m := a.(*mcore)
	out := m.txPending
	m.txPending = nil
	for i, f := range out {
		m.txq.Post(f)
		out[i] = nil
	}
	m.txSpare = out[:0]
	if m.tcpMore || m.tcpPending {
		m.wakeTCP()
	}
	m.ensureTimerWake()
	m.kickApp()
}

// queueJob hands work to the TCP thread; it runs after the batched
// handoff interval (half the round trip of mTCP's added latency).
func (m *mcore) queueJob(j func()) {
	m.jobQ = append(m.jobQ, j)
	if m.tcpQueued || m.tcpPending {
		return
	}
	m.tcpPending = true
	m.h.eng.After(m.h.cfg.Cost.HandoffInterval, m.wakeTCP)
}

// kickApp schedules an app round if events are waiting, after the
// batched handoff interval (the other half of the added latency).
func (m *mcore) kickApp() {
	if m.appPending || len(m.evQ) == 0 {
		return
	}
	m.appPending = true
	m.h.eng.After(m.h.cfg.Cost.HandoffInterval, func() {
		m.core.Submit(sim.ClassUser, m.appRound)
	})
}

// appRound drains the event queue through the application handler.
func (m *mcore) appRound(meter *sim.Meter) {
	m.appPending = false
	m.curMeter = meter
	c := &m.h.cfg.Cost
	for len(m.evQ) > 0 {
		mc := m.evQ[0]
		m.evQ = m.evQ[1:]
		mc.inEvQ = false
		meter.Charge(c.QueueOp)
		m.dispatch(mc, meter)
	}
	m.curMeter = nil
	meter.AtEnd(func() {
		m.kickApp()
		if len(m.jobQ) > 0 && !m.tcpPending && !m.tcpQueued {
			m.tcpPending = true
			m.h.eng.After(c.HandoffInterval, m.wakeTCP)
		}
	})
}

func (m *mcore) dispatch(mc *mconn, meter *sim.Meter) {
	c := &m.h.cfg.Cost
	if mc.acceptPending {
		mc.acceptPending = false
		meter.Charge(c.AppCall)
		m.handler.OnAccept(mc)
	}
	if mc.connectedPending {
		mc.connectedPending = false
		meter.Charge(c.AppCall)
		m.handler.OnConnected(mc, mc.connectedOK)
		if !mc.connectedOK {
			return
		}
	}
	if b := mc.buf; b != nil && len(b.rcvbuf) > 0 {
		chunk := b.rcvbuf
		// mtcp_read: API call + copy into the app buffer.
		meter.Charge(c.AppCall + c.CopyPerByte.Cost(len(chunk)))
		mc.conn.RecvDone(len(chunk))
		m.handler.OnRecv(mc, chunk)
		// The reader is done with the chunk (the TCP thread cannot append
		// while the app thread occupies the core, so the object is still
		// this connection's): an idle connection holds no receive buffer.
		if cap(chunk) > rcvKeep {
			b.rcvbuf = nil
		} else {
			b.rcvbuf = chunk[:0]
		}
		mc.putBuf()
		if mc.dead {
			return
		}
	}
	if mc.sentPending > 0 {
		n := int(mc.sentPending)
		mc.sentPending = 0
		meter.Charge(c.AppCall)
		m.handler.OnSent(mc, n)
	}
	if mc.readyPending {
		mc.readyPending = false
		if m.sendReady != nil && !mc.dead && !mc.closing {
			meter.Charge(c.AppCall)
			m.sendReady.OnSendReady(mc)
		}
	}
	if mc.eofPending {
		mc.eofPending = false
		m.handler.OnEOF(mc)
	}
	if mc.deadPending {
		mc.deadPending = false
		mc.dead = true
		if b := mc.buf; b != nil {
			// Unsent bytes die with the connection (read data was
			// delivered above); the engine dropped its references.
			b.sndbuf = nil
			mc.putBuf()
		}
		m.handler.OnClosed(mc)
	}
}

// ensureTimerWake arranges the next retransmission tick. It arms at the
// wheel's NextFireTime — never the raw deadline: a deadline inside the
// current wheel tick cannot fire before the next tick boundary, and
// waking for it earlier spins poll rounds on an idle core at one
// instant after another (the cousin of the linuxstack same-instant
// livelock, now fixed the same way in both stacks).
func (m *mcore) ensureTimerWake() {
	ft, ok := m.wheel.NextFireTime()
	if !ok {
		return
	}
	at := sim.Time(ft)
	if at < m.h.eng.Now() {
		// The wheel's clock lags the engine (no poll round ran lately):
		// wake now; the round's Advance catches the wheel up and the
		// next arming lands strictly in the future.
		at = m.h.eng.Now()
	}
	if m.timerWake != nil {
		if m.timerWake.At() <= at {
			return
		}
		m.h.eng.Cancel(m.timerWake)
	}
	m.timerWake = m.h.eng.At(at, m.timerFired)
}

// onTimerWake fires the scheduled retransmission tick.
func (m *mcore) onTimerWake() {
	m.timerWake = nil
	m.wakeTCP()
}

// env returns the app.Env for this core.
func (m *mcore) env() app.Env { return (*menv)(m) }

// menv implements app.Env.
type menv mcore

func (e *menv) m() *mcore { return (*mcore)(e) }

func (e *menv) Now() int64  { return int64(e.h.eng.Now()) }
func (e *menv) Thread() int { return e.id }

func (e *menv) Charge(d time.Duration) {
	if e.curMeter != nil {
		e.curMeter.Charge(d)
	}
}

// Elapsed returns CPU time charged in the current task.
func (e *menv) Elapsed() time.Duration {
	if e.curMeter != nil {
		return e.curMeter.Elapsed()
	}
	return 0
}

func (e *menv) Listen(port uint16) error {
	_, err := e.m().ns.TCP().Listen(port, nil)
	return err
}

func (e *menv) After(d time.Duration, fn func()) {
	m := e.m()
	m.h.eng.After(d, func() {
		m.core.Submit(sim.ClassUser, func(meter *sim.Meter) {
			m.curMeter = meter
			fn()
			m.curMeter = nil
			meter.AtEnd(func() {
				m.kickApp()
				if len(m.jobQ) > 0 && !m.tcpPending && !m.tcpQueued {
					m.tcpPending = true
					m.h.eng.After(m.h.cfg.Cost.HandoffInterval, m.wakeTCP)
				}
			})
		})
	})
}

func (e *menv) Connect(dst wire.IPv4, port uint16, cookie any) error {
	m := e.m()
	mc := &mconn{m: m, cookie: cookie}
	m.queueJob(func() {
		m.curMeter.Charge(m.h.cfg.Cost.ConnSetup)
		conn, err := m.ns.TCP().Connect(dst, port, 0)
		if err != nil {
			mc.connectedPending = true
			mc.connectedOK = false
			mc.dead = true
			m.enqueueEv(mc)
			return
		}
		mc.conn = conn
		conn.Cookie = m.grantConn(mc)
	})
	return nil
}

// enqueueEv queues a connection event for the app thread.
func (m *mcore) enqueueEv(mc *mconn) {
	if !mc.inEvQ {
		mc.inEvQ = true
		m.evQ = append(m.evQ, mc)
	}
	m.kickApp()
}

// mconn is an mTCP connection as the application sees it. It holds only
// what an idle established connection needs; the user-level staging
// buffers exist only while bytes are queued and live in a connBuf
// borrowed from the core's pool (DESIGN.md, "Per-connection memory
// budget").
type mconn struct {
	m      *mcore
	conn   *tcp.Conn
	cookie any

	// buf is non-nil from the first queued byte in either direction
	// until both staging buffers are empty again.
	buf *connBuf

	// sentPending is int32 (bounded by sndbufMax).
	sentPending int32

	inEvQ            bool
	acceptPending    bool
	connectedPending bool
	connectedOK      bool
	eofPending       bool
	deadPending      bool
	dead             bool

	// closing: mtcp_close was called; the FIN is owed but deferred until
	// the user-level sndbuf drains (finSent marks it issued), so bytes
	// queued before close reach the wire first.
	closing bool
	finSent bool
	// wantReady arms the writable-again edge after a short Send;
	// readyPending carries the armed edge to the app thread's dispatch.
	wantReady    bool
	readyPending bool
}

var _ app.Conn = (*mconn)(nil)

// connBuf is the user-level staging of one connection with bytes
// queued. A drained rcvbuf backing of at most rcvKeep stays with the
// object for its next borrower; a drained sndbuf is dropped —
// retransmission segments reference its transmitted prefix in place
// until acknowledged, so the backing is never recycled.
type connBuf struct {
	rcvbuf []byte
	sndbuf []byte
}

// getBuf returns the connection's staging buffers, borrowing a connBuf
// from the core's pool (LIFO free list) when none is attached.
//
//ix:hotpath
func (c *mconn) getBuf() *connBuf {
	if c.buf != nil {
		return c.buf
	}
	m := c.m
	if n := len(m.bufFree); n > 0 {
		c.buf = m.bufFree[n-1]
		m.bufFree[n-1] = nil
		m.bufFree = m.bufFree[:n-1]
	} else {
		//ixvet:ignore(hotpath) pool miss: once per unit of peak concurrency, steady state hits the free list
		c.buf = &connBuf{}
	}
	return c.buf
}

// putBuf returns the staging buffers to the core's pool once both are
// empty. dispatch empties rcvbuf only after the OnRecv holding it has
// returned, so the reader's chunk never aliases a pooled object.
//
//ix:hotpath
func (c *mconn) putBuf() {
	b := c.buf
	if b == nil || len(b.rcvbuf) > 0 || len(b.sndbuf) > 0 {
		return
	}
	c.buf = nil
	c.m.bufFree = append(c.m.bufFree, b)
}

// Send is mtcp_write: copy into the user-level send buffer and queue a
// write job for the TCP thread.
func (c *mconn) Send(b []byte) int {
	if c.dead || c.closing {
		return 0
	}
	m := c.m
	cc := &m.h.cfg.Cost
	if m.curMeter != nil {
		m.curMeter.Charge(cc.AppCall + cc.CopyPerByte.Cost(len(b)))
	}
	room := sndbufMax - c.Unsent()
	if room <= 0 {
		c.armSendReady()
		return 0
	}
	if len(b) > room {
		b = b[:room]
		c.armSendReady()
	}
	sb := c.getBuf()
	sb.sndbuf = append(sb.sndbuf, b...)
	m.queueJob(c.flushSnd)
	return len(b)
}

// armSendReady arms the writable-again edge after a short Send; a no-op
// unless the core's handler implements app.SendReadyHandler.
func (c *mconn) armSendReady() {
	if c.m.sendReady == nil || c.dead || c.closing {
		return
	}
	c.wantReady = true
}

// flushSnd runs on the TCP thread.
func (c *mconn) flushSnd() {
	b := c.buf
	if b == nil || len(b.sndbuf) == 0 || c.conn == nil || c.dead {
		return
	}
	m := c.m
	m.sg[0] = b.sndbuf
	n := c.conn.Sendv(m.sg[:])
	m.sg[0] = nil
	if n > 0 {
		segs := (n + wire.MSS - 1) / wire.MSS
		if m.curMeter != nil {
			m.curMeter.ChargeN(segs, m.h.cfg.Cost.ProtoTx)
		}
		b.sndbuf = b.sndbuf[n:]
		if len(b.sndbuf) == 0 {
			b.sndbuf = nil
			c.putBuf()
		}
	}
}

// Unsent reports user-level buffered bytes.
func (c *mconn) Unsent() int {
	if c.buf == nil {
		return 0
	}
	return len(c.buf.sndbuf)
}

// Close queues an orderly close job. Bytes still in the user-level
// sndbuf are not dropped: the FIN is deferred until the ACK-driven
// flush drains the buffer, so queued data reaches the wire first.
// Further writes are rejected (mTCP marks the socket closed).
func (c *mconn) Close() {
	if c.dead || c.closing {
		return
	}
	c.closing = true
	c.wantReady = false
	c.m.queueJob(c.finishClose)
}

// finishClose runs on the TCP thread: issue the FIN once the sndbuf is
// empty; otherwise the FIN stays owed to mtcpEvents.Sent.
func (c *mconn) finishClose() {
	if !c.closing || c.finSent || c.dead || c.conn == nil {
		return
	}
	if c.Unsent() > 0 {
		return
	}
	c.finSent = true
	c.conn.Close()
}

// Abort queues a RST close job.
func (c *mconn) Abort() {
	if c.dead {
		return
	}
	c.m.queueJob(func() {
		if c.conn != nil {
			c.conn.Abort()
		}
	})
}

// Cookie returns the app tag.
func (c *mconn) Cookie() any { return c.cookie }

// SetCookie tags the connection.
func (c *mconn) SetCookie(v any) { c.cookie = v }

// mtcpEvents adapts TCP engine callbacks; methods run on the TCP thread.
type mtcpEvents mcore

func (me *mtcpEvents) m() *mcore { return (*mcore)(me) }

func (me *mtcpEvents) Knock(l *tcp.Listener, key wire.FlowKey) bool { return true }

func (me *mtcpEvents) Accepted(c *tcp.Conn) {
	m := me.m()
	mc := &mconn{m: m, conn: c, acceptPending: true}
	c.Cookie = m.grantConn(mc)
	m.enqueueEv(mc)
}

func (me *mtcpEvents) Connected(c *tcp.Conn, ok bool) {
	m := me.m()
	mc := m.connOf(c)
	if mc == nil {
		return
	}
	mc.connectedPending = true
	mc.connectedOK = ok
	if !ok {
		// Terminal: a failed active open never reaches Dead, so the
		// cookie slot is released here.
		mc.dead = true
		m.revokeConn(c.Cookie)
	}
	m.enqueueEv(mc)
}

func (me *mtcpEvents) Recv(c *tcp.Conn, buf *mem.Mbuf, data []byte) {
	m := me.m()
	mc := m.connOf(c)
	if mc == nil {
		return
	}
	// Copy into the user-level receive buffer (mTCP's socket-like API
	// is not zero-copy); the copy itself is charged at mtcp_read.
	b := mc.getBuf()
	b.rcvbuf = append(b.rcvbuf, data...)
	m.enqueueEv(mc)
}

// Sent ignores released: mTCP's user-level sndbuf slides by accepted
// bytes, not by segment reclamation.
func (me *mtcpEvents) Sent(c *tcp.Conn, acked, released int) {
	m := me.m()
	mc := m.connOf(c)
	if mc == nil {
		return
	}
	mc.flushSnd()
	// A deferred mtcp_close issues its FIN the moment the buffer drains.
	if mc.closing {
		mc.finishClose()
	}
	if acked > 0 && mc.Unsent() > 0 && !mc.closing {
		mc.sentPending += int32(acked)
		m.enqueueEv(mc)
	}
	// Writable-again edge: a writer that saw a short Send wakes once the
	// buffer has actually reopened.
	if mc.wantReady && mc.Unsent() < sndbufMax {
		mc.wantReady = false
		mc.readyPending = true
		m.enqueueEv(mc)
	}
}

func (me *mtcpEvents) RemoteClosed(c *tcp.Conn) {
	m := me.m()
	mc := m.connOf(c)
	if mc == nil {
		return
	}
	mc.eofPending = true
	m.enqueueEv(mc)
}

func (me *mtcpEvents) Dead(c *tcp.Conn, reason tcp.Reason) {
	m := me.m()
	mc := m.connOf(c)
	if mc == nil {
		return
	}
	m.revokeConn(c.Cookie)
	mc.deadPending = true
	m.enqueueEv(mc)
}
