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

// Host is one mTCP machine.
type Host struct {
	netstack.Host
	eng   *sim.Engine
	cfg   sockcore.Config
	cost  cost.MTCP
	cores []*mcore
}

// New builds an mTCP host. Attach NIC ports before Start.
func New(eng *sim.Engine, cfg sockcore.Config) *Host {
	h := &Host{eng: eng, cost: cost.DefaultMTCP()}
	h.Host, cfg.Cores = netstack.NewHost(eng, cfg.IP, cfg.MAC, cfg.Cores, cfg.MemPages, nicsim.Config{RingSize: cfg.NICRing}, h.cost.L3Miss)
	h.cfg = cfg
	return h
}

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
	drv   *netstack.Driver
	wheel *timerwheel.Wheel
	// wake runs a TCP round when a wheel deadline comes due.
	wake *netstack.TimerWake
	// missNs is this round's per-frame LLC-miss charge (rxPrice).
	missNs time.Duration

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

	tcpMore  bool
	curMeter *sim.Meter

	// Bound callbacks, created once (method values allocate).
	tcpFn func(*sim.Meter)
	appFn func(*sim.Meter)
}

func newMcore(h *Host, id int) *mcore {
	m := &mcore{
		h:     h,
		id:    id,
		core:  sim.NewCore(h.eng, id),
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
	m.wake = netstack.NewTimerWake(h.eng, m.wheel, m.wakeTCP)
	m.drv = h.QueuePair(id, m.rxPrice)
	m.drv.RX.Mode = nicsim.ModePoll
	m.drv.RX.OnFrame = m.wakeTCP
	m.ns = h.NewStack(netstack.Config{
		Wheel:     m.wheel,
		SendFrame: m.drv.Stage,
		Events:    &m.layer,
		Seed:      h.cfg.Seed + uint64(id)*0x9e3779b97f4a7c15,
		RcvWnd:    h.cfg.RcvWnd,
		MinRTO:    h.cfg.MinRTO,
		// mTCP also partitions flows per core: it splits the ephemeral
		// port space by RSS, like IX.
		PortOK: h.RepliesTo(id),

		ExpectedConns: expected,
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

	m.missNs = time.Duration(cost.MissesPerMsg(m.h.ConnCount()) * float64(c.L3Miss))
	m.drv.RX.PostDescriptors(m.drv.Receive(meter, m.ns, pollBatch))
	m.wheel.Advance(int64(m.h.eng.Now()))
	// mTCP acks from the TCP thread, independent of the app.
	m.ns.Flush()
	m.curMeter = nil
	m.tcpMore = m.drv.RX.Len() > 0
	m.drv.PostAtEnd(meter)
	meter.AtEndCall(mEndTCPRound, m)
}

// rxPrice is the TCP thread's cost of one received frame; a handshake
// frame charges the miss floor (netstack.Host.Miss).
func (m *mcore) rxPrice(f *fabric.Frame) time.Duration {
	return m.h.cost.ProtoRx + m.h.Miss(f, m.missNs)
}

// mEndTCPRound re-arms polling once the round's frames are posted
// (pooled one-shot end action, no closure).
func mEndTCPRound(a any) {
	m := a.(*mcore)
	if m.tcpMore || m.tcpPending {
		m.wakeTCP()
	}
	m.wake.Arm()
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

// env returns the app.Env for this core.
func (m *mcore) env() app.Env { return (*menv)(m) }

// menv implements app.Env.
type menv mcore

func (e *menv) m() *mcore { return (*mcore)(e) }

func (e *menv) Now() int64 { return int64(e.h.eng.Now()) }

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
