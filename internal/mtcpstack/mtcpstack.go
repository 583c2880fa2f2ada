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
	"math"
	"time"

	"ix/internal/app"
	"ix/internal/cost"
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/memprobe"
	"ix/internal/netstack"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/sockcore"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// pollBatch is the TCP thread's per-round packet budget (mTCP uses large
// I/O batches).
const pollBatch = 2048

// Config describes an mTCP host.
type Config struct {
	Name string
	IP   wire.IPv4
	MAC  wire.MAC
	// Cores is the number of core pairs (TCP thread + app thread per
	// core, as mTCP deploys).
	Cores int
	// Factory builds the per-thread application.
	Factory app.Factory
	// Seed, RcvWnd, MinRTO, MemPages, NICRing tune the stack.
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
	cost   cost.MTCP
	nic    *nicsim.NIC
	arp    *netstack.ARPTable
	region *mem.Region
	cores  []*mcore
	// missFloor is the handshake-frame miss charge (batched SYN
	// admission), a run constant hoisted out of the poll loop.
	missFloor time.Duration
	// poolDrops counts received frames released because an mbuf pool
	// was dry.
	poolDrops uint64
}

// New builds an mTCP host. Attach NIC ports before Start.
func New(eng *sim.Engine, cfg Config) *Host {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.MemPages <= 0 {
		cfg.MemPages = 512
	}
	h := &Host{
		eng:    eng,
		cfg:    cfg,
		cost:   cost.DefaultMTCP(),
		arp:    netstack.NewARPTable(),
		region: mem.NewRegion(cfg.MemPages),
	}
	h.missFloor = time.Duration(cost.MissesPerMsg(0) * float64(h.cost.L3Miss))
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
		m.sock.SetHandler(h.cfg.Factory(m.env(), m.id, h.cfg.Cores))
		m.kickApp()
	}
}

// Cores returns the core count.
func (h *Host) Cores() int { return len(h.cores) }

// Stack returns core i's network stack (started hosts only).
func (h *Host) Stack(i int) *netstack.Stack { return h.cores[i].ns }

// EachStack calls fn with every core's network stack (started hosts
// only).
func (h *Host) EachStack(fn func(*netstack.Stack)) {
	for _, m := range h.cores {
		fn(m.ns)
	}
}

// PoolDrops counts received frames the TCP threads released because an
// mbuf pool was dry.
func (h *Host) PoolDrops() uint64 { return h.poolDrops }

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

// Footprint implements the memprobe accounting contract for the mTCP
// host model: each core's TCP engine tally and its socket layer.
func (h *Host) Footprint() memprobe.Footprint {
	var f memprobe.Footprint
	for _, m := range h.cores {
		f.Add(m.layer.Footprint(m.ns.TCP()))
	}
	return f
}

// Slabs reports the host's staging slabs, attached and free.
func (h *Host) Slabs() (inUse, free int) {
	for _, m := range h.cores {
		u, f := m.layer.Slabs()
		inUse, free = inUse+u, free+f
	}
	return inUse, free
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

	// layer is per core: each mcore owns a private TCP stack (mTCP's
	// shared-nothing design). sock holds the handler and the event queue
	// (TCP thread → app thread, batched).
	layer      sockcore.Layer
	sock       sockcore.Owner
	appPending bool

	// Job queue: app thread → TCP thread (batched writes/connects);
	// jobSpare ping-pongs the backing through the TCP round.
	jobQ       []job
	jobSpare   []job
	tcpPending bool
	tcpQueued  bool // a TCP round is scheduled right now

	outFrames []*fabric.Frame
	txPending []*fabric.Frame
	txSpare   []*fabric.Frame
	tcpMore   bool
	curMeter  *sim.Meter

	// Bound callbacks, created once (method values allocate).
	tcpFn      func(*sim.Meter)
	appFn      func(*sim.Meter)
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
	}
	m.layer.Reserve(expected)
	m.layer.Accepting = func() *sockcore.Owner { return &m.sock }
	c := &h.cost
	m.sock = sockcore.Owner{
		Layer: &m.layer,
		Costs: sockcore.Costs{
			Write:       c.AppCall,
			TxSeg:       c.ProtoTx,
			Event:       c.QueueOp,
			Accept:      c.AppCall,
			Connected:   c.AppCall,
			Read:        c.AppCall,
			Sent:        c.AppCall,
			SendReady:   c.AppCall,
			CopyPerByte: c.CopyPerByte,
		},
		// mtcp_read takes everything queued.
		ReadMax: math.MaxInt,
		// Writes, closes and aborts are TCP-thread jobs.
		Charge: m.charge,
		Run:    m.queueJob,
		Ready:  m.kickApp,
	}
	m.tcpFn = m.tcpRound
	m.appFn = m.appRound
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
		Events:    &m.layer,
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
	c := &m.h.cost
	meter.Charge(c.PollRound)

	// Application jobs first (writes queued since last round).
	jobs := m.jobQ
	m.jobQ = m.jobSpare[:0]
	for i := range jobs {
		meter.Charge(c.QueueOp)
		m.runJob(&jobs[i])
		jobs[i] = job{}
	}
	m.jobSpare = jobs[:0]

	frames := m.rxq.Take(pollBatch)
	m.rxq.PostDescriptors(len(frames))
	miss := time.Duration(cost.MissesPerMsg(m.h.ConnCount()) * float64(c.L3Miss))
	for _, f := range frames {
		buf := m.pool.Alloc()
		if buf == nil {
			m.h.poolDrops++
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

// job is one handoff to the TCP thread: a socket operation, or the
// active open of a socket Connect made.
type job struct {
	s    *sockcore.Sock
	op   sockcore.Op
	port uint16
	dst  wire.IPv4
}

// opConnect is the one job that is not a socket operation.
const opConnect = sockcore.OpAbort + 1

// queueJob hands a socket operation to the TCP thread.
func (m *mcore) queueJob(s *sockcore.Sock, op sockcore.Op) {
	m.jobQ = append(m.jobQ, job{s: s, op: op})
	m.armTCP()
}

// armTCP schedules a TCP round for queued jobs after the batched handoff
// interval (half the round trip of mTCP's added latency).
func (m *mcore) armTCP() {
	if m.tcpQueued || m.tcpPending {
		return
	}
	m.tcpPending = true
	m.h.eng.CallAfter(m.h.cost.HandoffInterval, mWakeTCP, m)
}

// runJob runs one handoff on the TCP thread.
func (m *mcore) runJob(j *job) {
	if j.op != opConnect {
		j.s.Do(j.op)
		return
	}
	m.curMeter.Charge(m.h.cost.ConnSetup)
	conn, err := m.ns.TCP().Connect(j.dst, j.port, 0)
	j.s.Open(conn, err)
}

// kickApp schedules an app round if events are waiting, after the
// batched handoff interval (the other half of the added latency).
func (m *mcore) kickApp() {
	if m.appPending || !m.sock.Pending() {
		return
	}
	m.appPending = true
	m.h.eng.CallAfter(m.h.cost.HandoffInterval, mRunApp, m)
}

// appRound drains the event queue through the application handler.
func (m *mcore) appRound(meter *sim.Meter) {
	m.appPending = false
	m.curMeter = meter
	m.sock.Dispatch()
	m.curMeter = nil
	meter.AtEndCall(mEndApp, m)
}

// charge bills d to the task running on this core pair, if any.
func (m *mcore) charge(d time.Duration) {
	if m.curMeter != nil {
		m.curMeter.Charge(d)
	}
}

// Handoff trampolines (pooled events, no closures).
func mWakeTCP(a any) { a.(*mcore).wakeTCP() }

func mRunApp(a any) {
	m := a.(*mcore)
	m.core.Submit(sim.ClassUser, m.appFn)
}

// mEndApp ends an app-thread task: hand the events and jobs it produced
// to the other thread.
func mEndApp(a any) {
	m := a.(*mcore)
	m.kickApp()
	if len(m.jobQ) > 0 {
		m.armTCP()
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

func (e *menv) Charge(d time.Duration) { e.m().charge(d) }

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
			meter.AtEndCall(mEndApp, m)
		})
	})
}

func (e *menv) Connect(dst wire.IPv4, port uint16, cookie any) error {
	m := e.m()
	m.jobQ = append(m.jobQ, job{s: m.sock.NewSock(cookie), op: opConnect, port: port, dst: dst})
	m.armTCP()
	return nil
}
