// Package linuxstack models the paper's carefully tuned Linux 3.16
// baseline (§5.1): an interrupt-driven kernel TCP stack with NAPI
// softirq processing, socket buffers with copies at the syscall boundary,
// epoll-based event delivery with scheduler wakeups, and application
// threads pinned one per core sharing those cores with kernel work.
//
// Unlike IX's shared-nothing elastic threads, the kernel's connection
// table is global: any core's softirq context can process any flow (the
// shared Stack below), with RSS steering packets to per-core queues and
// affinity-accept-style handoff of accepted sockets to the core that
// received them. The same TCP protocol engine as IX runs underneath;
// what differs — and what this package models — is *where and when*
// protocol work executes: hardirq → softirq → socket buffer → wakeup →
// epoll_wait → read/write syscalls with per-byte copies, instead of IX's
// run-to-completion cycle.
package linuxstack

import (
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

// napiBudget is the Linux NAPI poll budget (packets per softirq poll).
const napiBudget = 64

// readChunk is the bytes one read() drains: one staging slab.
const readChunk = sockcore.SlabSize

// itr is the NIC interrupt moderation; the paper tunes thresholds, so it
// is a low 4 µs.
const itr = 4 * time.Microsecond

// Host is one Linux machine: a single kernel stack, per-core NIC queues
// and softirq contexts, and one pinned application thread per core.
type Host struct {
	netstack.Host
	eng   *sim.Engine
	cfg   sockcore.Config
	cost  cost.Linux
	cores []*kcore

	// ns is the *shared* kernel network stack (global PCB table).
	ns *netstack.Stack
	// wheel is the kernel timer wheel (global, as in Linux).
	wheel *timerwheel.Wheel
	// cur is the core whose context is currently executing kernel or
	// app work; stack callbacks attribute costs and output to it.
	cur *kcore

	// layer holds the host-global fd-style socket table.
	layer sockcore.Layer

	listening map[uint16]bool
	// wake runs the kernel wheel on core 0 when a deadline comes due.
	wake *netstack.TimerWake
	// timerTask is bound once (method values allocate).
	timerTask func(*sim.Meter)
}

// New builds a Linux host. Attach NIC ports before Start.
func New(eng *sim.Engine, cfg sockcore.Config) *Host {
	h := &Host{
		eng:       eng,
		cost:      cost.DefaultLinux(),
		listening: make(map[uint16]bool),
	}
	h.Host, cfg.Cores = netstack.NewHost(eng, cfg.IP, cfg.MAC, cfg.Cores, cfg.MemPages, nicsim.Config{RingSize: cfg.NICRing, ITR: itr}, h.cost.L3Miss)
	h.cfg = cfg
	h.layer.Reserve(cfg.ExpectedConns)
	h.layer.Tx = sockcore.SendPool(&h.Host, 0)
	// Affinity accept (§2.3): a socket belongs to the core whose queue
	// received its handshake, and its events wake that core's thread.
	h.layer.Accepting = func() *sockcore.Owner { return &h.curCore().sock }
	h.timerTask = h.runTimerTask
	h.wheel = timerwheel.New(timerwheel.DefaultTick, int64(eng.Now()))
	h.wake = netstack.NewTimerWake(eng, h.wheel, func() { h.cores[0].core.Submit(sim.ClassKernel, h.timerTask) })
	h.ns = h.NewStack(netstack.Config{
		Wheel:     h.wheel,
		SendFrame: func(f *fabric.Frame) { h.curCore().drv.Stage(f) },
		Events:    &h.layer,
		Seed:      cfg.Seed,
		RcvWnd:    cfg.RcvWnd,
		MinRTO:    cfg.MinRTO,
		// Linux delays pure ACKs so responses piggyback them (scaled
		// to the simulation's RTO floor).
		DelAck: 100 * time.Microsecond,

		ExpectedConns: cfg.ExpectedConns,
	})
	h.layer.TCP = h.ns.TCP()
	return h
}

// Stack exposes the shared kernel stack (tests).
func (h *Host) Stack() *netstack.Stack { return h.ns }

// Start spawns per-core kernel contexts and application threads.
func (h *Host) Start() {
	for i := 0; i < h.cfg.Cores; i++ {
		h.cores = append(h.cores, newKcore(h, i))
	}
	for _, k := range h.cores {
		k.sock.SetHandler(h.cfg.Factory(k.env(), k.id, h.cfg.Cores))
		k.maybeWakeApp()
	}
}

// curCore returns the core whose context is executing, for cost
// attribution and output.
func (h *Host) curCore() *kcore {
	if h.cur != nil {
		return h.cur
	}
	return h.cores[0]
}

// Footprint implements the memprobe accounting contract for the Linux
// host model: the shared kernel stack's tally and its socket layer.
func (h *Host) Footprint() memprobe.Footprint { return h.layer.Footprint(h.ns.TCP()) }

// Slabs reports the host's receive slabs, attached and free.
func (h *Host) Slabs() (inUse, free int) { return h.layer.Slabs() }

// CPUBreakdown reports kernel vs user busy time since ResetStats.
func (h *Host) CPUBreakdown() (kernel, user time.Duration) {
	for _, k := range h.cores {
		kernel += time.Duration(k.kernelNs)
		user += time.Duration(k.userNs)
	}
	return kernel, user
}

// ResetStats zeroes measurement counters.
func (h *Host) ResetStats() {
	for _, k := range h.cores {
		k.kernelNs, k.userNs = 0, 0
		k.core.ResetStats()
	}
}

// runTimerTask advances the kernel wheel in softirq context on core 0.
func (h *Host) runTimerTask(m *sim.Meter) {
	k := h.cores[0]
	h.cur = k
	k.curMeter = m
	h.wheel.Advance(int64(h.eng.Now()))
	h.ns.Flush()
	k.leave(m, kEndTimer)
}

// kcore is one core: a NAPI softirq context plus the pinned app thread.
type kcore struct {
	h    *Host
	id   int
	core *sim.Core

	drv *netstack.Driver
	// missNs is this poll's per-frame LLC-miss charge (rxPrice).
	missNs time.Duration

	sock       sockcore.Owner // the handler and the epoll ready list
	appRunning bool
	napiQueued bool
	napiMore   bool

	// Bound methods, created once (method values allocate).
	napiFn   func(*sim.Meter)
	appRunFn func(*sim.Meter)

	curMeter  *sim.Meter
	sysKernel time.Duration

	kernelNs int64
	userNs   int64
}

func newKcore(h *Host, id int) *kcore {
	k := &kcore{
		h:    h,
		id:   id,
		core: sim.NewCore(h.eng, id),
	}
	k.napiFn = k.napiPoll
	k.appRunFn = k.appRun
	c := &h.cost
	k.sock = sockcore.Owner{
		Layer: &h.layer,
		Costs: sockcore.Costs{
			Write:       c.SyscallEntry + c.SockWrite,
			TxSeg:       c.TxPerPkt,
			Close:       c.SyscallEntry,
			Abort:       c.SyscallEntry,
			Event:       c.EpollDispatch,
			Accept:      c.SyscallEntry + c.ConnSetup, // accept4()
			Read:        c.SyscallEntry + c.SockRead,
			CopyPerByte: c.CopyPerByte,
		},
		ReadMax: readChunk,
		// Syscalls run inline, in the calling thread's kernel context.
		Charge: k.chargeK,
		Run:    (*sockcore.Sock).Do,
		Ready:  k.maybeWakeApp,
	}
	k.core.CtxSwitch = c.CtxSwitch
	k.drv = h.QueuePair(id, k.rxPrice)
	k.drv.RX.Mode = nicsim.ModeInterrupt
	k.drv.RX.OnInterrupt = k.hardIRQ
	k.drv.RX.EnableInterrupt()
	return k
}

// chargeK charges kernel work inside whatever task is running.
func (k *kcore) chargeK(d time.Duration) {
	if k.curMeter != nil {
		k.curMeter.Charge(d)
	}
	k.kernelNs += int64(d)
	k.sysKernel += d
}

// leave ends k's context in the running task: the frames it staged
// reach the TX ring at the task's end, and then end runs.
func (k *kcore) leave(m *sim.Meter, end func(any)) {
	k.curMeter = nil
	k.h.cur = nil
	k.drv.PostAtEnd(m)
	m.AtEndCall(end, k)
}

// AtEnd trampolines (pooled events, no closures).
func kEndTimer(a any) { a.(*kcore).h.wake.Arm() }

func kEndNapi(a any) {
	k := a.(*kcore)
	if k.napiMore {
		k.scheduleNAPI()
	} else {
		k.drv.RX.EnableInterrupt()
	}
	k.h.wake.Arm()
}

func kEndApp(a any) {
	k := a.(*kcore)
	k.appRunning = false
	k.maybeWakeApp() // events may have landed while we ran
	k.h.wake.Arm()
}

func kEndTask(a any) {
	k := a.(*kcore)
	k.maybeWakeApp()
	k.h.wake.Arm()
}

// hardIRQ is the NIC interrupt: schedule softirq (NAPI) on this core.
func (k *kcore) hardIRQ() {
	k.drv.RX.DisableInterrupt()
	k.scheduleNAPI()
}

func (k *kcore) scheduleNAPI() {
	if k.napiQueued {
		return
	}
	k.napiQueued = true
	k.core.Submit(sim.ClassKernel, k.napiFn)
}

// napiPoll is one softirq poll round: up to the budget of packets through
// the shared kernel stack, then re-poll or re-enable interrupts.
func (k *kcore) napiPoll(m *sim.Meter) {
	h := k.h
	k.napiQueued = false
	h.cur = k
	k.curMeter = m
	c := &h.cost
	m.Charge(c.HardIRQ)
	k.kernelNs += int64(c.HardIRQ)
	k.missNs = time.Duration(cost.MissesPerMsg(h.ConnCount()) * float64(c.L3Miss))
	k.drv.RX.PostDescriptors(k.drv.Receive(m, h.ns, napiBudget))
	// Kernel timers piggyback on softirq.
	h.wheel.Advance(int64(h.eng.Now()))
	// The kernel acks as it processes, sliding its receive window
	// independent of the application (§3).
	h.ns.Flush()
	k.napiMore = k.drv.RX.Len() > 0
	k.leave(m, kEndNapi)
}

// rxPrice is the softirq's kernel time for one received frame; a
// handshake frame charges the miss floor (netstack.Host.Miss).
func (k *kcore) rxPrice(f *fabric.Frame) time.Duration {
	d := k.h.cost.SoftIRQPerPkt + k.h.Miss(f, k.missNs)
	k.kernelNs += int64(d)
	return d
}

// maybeWakeApp wakes the core's app thread if it is blocked in
// epoll_wait with a socket ready.
func (k *kcore) maybeWakeApp() {
	if k.appRunning || !k.sock.Pending() {
		return
	}
	k.appRunning = true
	// Scheduler wakeup latency for the blocked, pinned thread.
	k.core.SubmitAfter(k.h.cost.WakeupLatency, sim.ClassUser, k.appRunFn)
}

// appRun is the application thread resuming from epoll_wait.
func (k *kcore) appRun(m *sim.Meter) {
	h := k.h
	h.cur = k
	k.curMeter = m
	k.sysKernel = 0
	c := &h.cost
	k.chargeK(c.SyscallEntry) // epoll_wait return
	userStart := m.Elapsed()
	preKernel := k.sysKernel
	k.sock.Dispatch()
	userSpent := m.Elapsed() - userStart - (k.sysKernel - preKernel)
	if userSpent > 0 {
		k.userNs += int64(userSpent)
	}
	k.leave(m, kEndApp)
}

// env returns the app.Env for this core's application thread.
func (k *kcore) env() app.Env { return (*kenv)(k) }

// kenv implements app.Env on a kcore.
type kenv kcore

func (e *kenv) k() *kcore { return (*kcore)(e) }

func (e *kenv) Now() int64 { return int64(e.h.eng.Now()) }

func (e *kenv) Charge(d time.Duration) {
	k := e.k()
	if k.curMeter != nil {
		k.curMeter.Charge(d)
	} else {
		k.userNs += int64(d)
	}
}

// Elapsed returns CPU time charged in the current task.
func (e *kenv) Elapsed() time.Duration {
	if k := e.k(); k.curMeter != nil {
		return k.curMeter.Elapsed()
	}
	return 0
}

// Listen binds the shared kernel stack to port once; further listens are
// SO_REUSEPORT no-ops (accepted sockets are distributed by RSS core).
func (e *kenv) Listen(port uint16) error {
	k := e.k()
	if k.h.listening[port] {
		return nil
	}
	k.h.listening[port] = true
	_, err := k.h.ns.TCP().Listen(port, nil)
	return err
}

// runAppTask runs fn in an app-thread task with kernel context wiring.
func (k *kcore) runAppTask(fn func()) {
	k.core.Submit(sim.ClassUser, func(m *sim.Meter) {
		k.h.cur = k
		k.curMeter = m
		fn()
		k.leave(m, kEndTask)
	})
}

func (e *kenv) After(d time.Duration, fn func()) {
	k := e.k()
	k.h.eng.After(d, func() { k.runAppTask(fn) })
}

func (e *kenv) Connect(dst wire.IPv4, port uint16, cookie any) error {
	k := e.k()
	if k.curMeter != nil {
		prev := k.h.cur
		k.h.cur = k
		k.connect(dst, port, cookie)
		k.h.cur = prev
		return nil
	}
	// Issued outside any task (program start): run as an app task. Only
	// this path builds a closure; a ramp's connects come from inside
	// tasks, one per connection.
	k.runAppTask(func() { k.connect(dst, port, cookie) })
	return nil
}

// connect is the connect system call's kernel side.
func (k *kcore) connect(dst wire.IPv4, port uint16, cookie any) {
	k.chargeK(k.h.cost.SyscallEntry + k.h.cost.ConnSetup)
	conn, err := k.h.ns.TCP().Connect(dst, port, 0)
	k.sock.NewSock(cookie).Open(conn, err)
}
