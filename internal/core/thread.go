package core

import (
	"time"

	"ix/internal/dune"
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/netstack"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/tcp"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// UserProgram is the ring-3 side of an elastic thread: libix implements
// it. Run is invoked at the user transition of each run-to-completion
// cycle with the event condition array and the return codes of the
// previous batch; it issues new batched system calls through the api.
type UserProgram interface {
	Run(api *UserAPI, events []Event, results []SyscallResult)
}

// userTimeout is the §4.5 timeout interrupt bound on time in user mode.
const userTimeout = 10 * time.Millisecond

// ElasticThread is one dataplane hardware thread: it owns an RX/TX queue
// pair, a mbuf pool, a timer wheel, a TCP/IP stack instance and the
// shared-memory syscall/event arrays of one application thread. Nothing
// here is shared with other elastic threads (§4.4) except the host ARP
// table.
type ElasticThread struct {
	dp   *Dataplane
	id   int
	core *sim.Core

	ns     *netstack.Stack
	drv    *netstack.Driver
	wheel  *timerwheel.Wheel
	txpool *mem.TxChunkPool
	gate   *dune.Gate[tcp.Conn]

	user UserProgram
	api  *UserAPI

	// Shared-memory arrays (Table 1). The spare fields hold drained
	// backing arrays for reuse, so the steady-state cycle does not
	// allocate event/syscall/result storage.
	events   []Event
	syscalls []Syscall
	results  []SyscallResult
	evSpare  []Event
	sysSpare []Syscall
	resSpare []SyscallResult

	// cycleFn/idleFn are bound methods, created once so neither a wake
	// nor an idle-timer arming allocates a closure.
	cycleFn func(*sim.Meter)
	idleFn  func()

	cycleActive bool
	idleWake    *sim.Event
	descDebt    int
	// missNs is this cycle's per-frame LLC-miss charge (rxPrice).
	missNs time.Duration

	// pendingCharge accumulates user CPU cost incurred outside a cycle
	// (e.g. at application start), applied to the next user phase.
	pendingCharge time.Duration

	// Measurements.
	Cycles        uint64
	RxPackets     uint64
	KernelNs      int64
	UserNs        int64
	NonResponsive bool

	stopped bool
}

// Gate exposes the thread's dune syscall gate (tests, security checks).
func (et *ElasticThread) Gate() *dune.Gate[tcp.Conn] { return et.gate }

// Stack exposes the thread's network stack instance.
func (et *ElasticThread) Stack() *netstack.Stack { return et.ns }

// newElasticThread wires up thread id on the dataplane.
func newElasticThread(dp *Dataplane, id int) *ElasticThread {
	// Per-thread share of the host's expected flow population: RSS
	// spreads flows near-uniformly over the provisioned queue pairs.
	expected := dp.cfg.ExpectedConns / dp.cfg.MaxThreads
	et := &ElasticThread{
		dp:     dp,
		id:     id,
		core:   sim.NewCore(dp.eng, id),
		txpool: mem.NewTxChunkPool(dp.Region(), id),
		gate:   dune.NewGate[tcp.Conn](id, expected),
		wheel:  timerwheel.New(timerwheel.DefaultTick, int64(dp.eng.Now())),
	}
	et.cycleFn = et.cycle
	et.idleFn = et.idleFired
	et.drv = dp.QueuePair(id, et.rxPrice)
	et.drv.RX.Mode = nicsim.ModePoll
	et.drv.RX.OnFrame = et.wake
	et.ns = dp.NewStack(netstack.Config{
		Wheel:     et.wheel,
		SendFrame: et.drv.Stage,
		Events:    (*threadEvents)(et),
		Seed:      dp.cfg.Seed + uint64(id)*0x9e3779b97f4a7c15,
		MinRTO:    dp.cfg.MinRTO,
		PortOK:    dp.RepliesTo(id),

		ExpectedConns: expected,
	})
	et.api = &UserAPI{et: et}
	return et
}

// wake schedules a run-to-completion cycle if one is not already queued.
func (et *ElasticThread) wake() {
	if et.cycleActive || et.stopped {
		return
	}
	if et.idleWake != nil {
		et.dp.eng.Cancel(et.idleWake)
		et.idleWake = nil
	}
	et.cycleActive = true
	et.core.Submit(sim.ClassDataplane, et.cycleFn)
}

// cycle is one run-to-completion iteration (Fig. 1b): (1) poll the RX
// ring and replenish descriptors, (2) protocol processing generating
// event conditions, (3) user transition — the application consumes all
// events and batches system calls, (4) process batched syscalls, (5) run
// kernel timers, (6) place outgoing frames on the TX ring at cycle end.
func (et *ElasticThread) cycle(m *sim.Meter) {
	c := &et.dp.cfg.Cost
	now := int64(et.dp.eng.Now())
	et.Cycles++
	m.Charge(c.CyclePoll)

	// (1) Poll a bounded batch; batching is adaptive — we take whatever
	// is present up to B, never waiting to accumulate (§3). (2) Protocol
	// processing, generating event conditions, runs on each frame as it
	// is taken (rxPrice has its charge).
	et.missNs = et.dp.missPenalty()
	taken := et.drv.Receive(m, et.ns, et.dp.cfg.BatchBound)
	// Replenish descriptors, coalescing PCIe doorbell writes (§6).
	et.descDebt += taken
	if c.NoDoorbellCoalesce {
		// Ablation: one PCIe write per descriptor, the §6 bottleneck.
		m.ChargeN(et.descDebt, c.DescriptorPost)
		et.drv.RX.PostDescriptors(et.descDebt)
		et.descDebt = 0
	} else if et.descDebt >= 32 || (et.descDebt > 0 && et.drv.RX.DescAvail() < 64) {
		et.drv.RX.PostDescriptors(et.descDebt)
		et.descDebt = 0
		m.Charge(c.DescriptorPost)
	}

	// (3) User transition: the application consumes all event
	// conditions and issues batched system calls.
	var userSpent time.Duration
	if len(et.events) > 0 || len(et.syscalls) > 0 || len(et.results) > 0 || et.pendingCharge > 0 {
		m.Charge(2 * c.UserTransition) // enter + leave ring 3
		m.ChargeN(len(et.events), c.EventCond)
		events := et.events
		results := et.results
		et.events = et.evSpare[:0]
		et.results = et.resSpare[:0]
		et.evSpare = nil
		et.resSpare = nil
		preUser := m.Elapsed()
		m.Charge(et.pendingCharge)
		et.pendingCharge = 0
		et.api.meter = m
		et.user.Run(et.api, events, results)
		et.api.meter = nil
		userSpent = m.Elapsed() - preUser
		if userSpent > userTimeout {
			// §4.5 timeout interrupt: mark the thread non-responsive.
			et.NonResponsive = true
		}
		// Recycle the consumed arrays (pool-allocated in spirit): zero the
		// entries to drop mbuf/cookie references, keep the storage.
		for i := range events {
			events[i] = Event{}
		}
		et.evSpare = events[:0]
		for i := range results {
			results[i] = SyscallResult{}
		}
		et.resSpare = results[:0]
	}

	// (4) Process the batched system calls, writing return codes back.
	if len(et.syscalls) > 0 {
		batch := et.syscalls
		et.syscalls = et.sysSpare[:0]
		et.sysSpare = nil
		for i := range batch {
			m.Charge(c.Syscall)
			et.results = append(et.results, et.dispatch(&batch[i], m))
		}
		for i := range batch {
			batch[i] = Syscall{}
		}
		et.sysSpare = batch[:0]
	}

	// (5) Run kernel timers for TCP compliance.
	et.wheel.Advance(now)
	m.Charge(c.TimerCycle)

	// Acknowledgment pacing: pure ACKs go out only now, after the
	// application has consumed its events (§3).
	et.ns.Flush()

	// Account kernel vs user time for the Fig. 5 CPU breakdown: all of
	// the cycle except the user phase is dataplane kernel time.
	et.UserNs += int64(userSpent)
	et.KernelNs += int64(m.Elapsed() - userSpent)

	// (6) Outgoing frames hit the TX descriptor ring at cycle end; the
	// NIC DMA-reads them directly from mbuf memory (zero-copy).
	et.drv.PostAtEnd(m)
	m.AtEndCall(cycleFinish, et)
}

// rxPrice is the cost of one frame the cycle delivers, which it counts.
// Each frame becomes a posted mbuf's data: the simulated DMA write is
// charged, not performed. A handshake frame charges the miss floor
// (netstack.Host.Miss).
func (et *ElasticThread) rxPrice(f *fabric.Frame) time.Duration {
	c := &et.dp.cfg.Cost
	et.RxPackets++
	// CopyPerByte is zero but for the zero-copy ablation.
	return c.ProtoRx + c.ProtoRxByte.Cost(f.Len()) + c.CopyPerByte.Cost(f.Len()) + et.dp.Miss(f, et.missNs)
}

// cycleFinish runs at the cycle's virtual end time, once its frames are
// posted: decide whether to run again.
func cycleFinish(a any) { a.(*ElasticThread).cycleEnd() }

// cycleEnd decides between another immediate cycle and quiescence.
func (et *ElasticThread) cycleEnd() {
	et.cycleActive = false
	if et.stopped {
		return
	}
	now := int64(et.dp.eng.Now())
	// NextFireTime, not NextDeadline: a deadline inside the current
	// wheel tick cannot fire before the next tick boundary, and waking
	// for it earlier re-runs cycles in which Advance makes no progress
	// — the charged mid-tick spin the baselines' netstack.TimerWake was
	// already cured of.
	ft, hasTimer := et.wheel.NextFireTime()
	if et.drv.RX.Len() > 0 || len(et.events) > 0 || len(et.syscalls) > 0 ||
		len(et.results) > 0 || (hasTimer && ft <= now) {
		et.wake()
		return
	}
	// Quiescent: hyperthread-friendly polling. A frame arrival wakes us
	// via OnFrame; a pending timer schedules an explicit wakeup.
	if hasTimer {
		et.idleWake = et.dp.eng.At(sim.Time(ft), et.idleFn)
	}
}

// idleFired is the idle-loop timer wakeup (bound once; see idleFn).
func (et *ElasticThread) idleFired() {
	et.idleWake = nil
	et.wake()
}

// dispatch executes one batched system call in the dataplane kernel.
func (et *ElasticThread) dispatch(sc *Syscall, m *sim.Meter) SyscallResult {
	c := &et.dp.cfg.Cost
	res := SyscallResult{Type: sc.Type, Handle: sc.Handle, Cookie: sc.Cookie}
	switch sc.Type {
	case SysConnect:
		m.Charge(c.ConnSetup)
		conn, err := et.ns.TCP().Connect(sc.DstIP, sc.DstPort, 0)
		if err != nil {
			res.Err = err
			et.events = append(et.events, Event{Type: EvConnected, Cookie: sc.Cookie, Outcome: false})
			return res
		}
		// The flow handle is the PCB's owner id; the user's cookie
		// lives in the capability entry.
		conn.Cookie = et.gate.Grant(conn, sc.Cookie)
		res.Handle = conn.Cookie
	case SysAccept:
		res.Err = et.gate.SetCookie(sc.Handle, sc.Cookie)
	case SysSendv:
		conn, err := et.gate.Lookup(sc.Handle)
		if err != nil {
			res.Err = err
			return res
		}
		n := conn.Sendv(sc.SG, sc.Backs)
		res.N = n
		segs := (n + wire.MSS - 1) / wire.MSS
		m.ChargeN(segs, c.ProtoTx)
		m.Charge(c.ProtoTxByte.Cost(n))
		m.Charge(c.CopyPerByte.Cost(n)) // zero-copy ablation only
	case SysRecvDone:
		// recv_done advances the flow's receive window and frees its
		// buffers. The buffers are freed even when the handle is refused:
		// a recv_done batched behind an abort of its own flow names a
		// handle the abort has already revoked, yet the mbufs it returns
		// were delivered from this thread's pool all the same.
		if res.Err = et.gate.RecvDone(sc.Handle, sc.Bytes); res.Err == nil {
			conn, _ := et.gate.Lookup(sc.Handle) // RecvDone has just resolved it
			conn.RecvDone(sc.Bytes)
		}
		for _, b := range sc.Bufs {
			if b.Owner != et.drv.Pool.Owner {
				res.Err = et.gate.Deny()
				return res
			}
			b.Unref()
		}
	case SysClose:
		conn, err := et.gate.Lookup(sc.Handle)
		if err != nil {
			res.Err = err
			return res
		}
		m.Charge(c.ConnSetup / 2)
		conn.Close()
	case SysAbort:
		conn, err := et.gate.Lookup(sc.Handle)
		if err != nil {
			res.Err = err
			return res
		}
		m.Charge(c.ConnSetup / 2)
		conn.Abort()
	}
	return res
}

// threadEvents adapts tcp.Events callbacks into event conditions.
// (Methods run in dataplane kernel context during protocol processing.)
type threadEvents ElasticThread

func (te *threadEvents) et() *ElasticThread { return (*ElasticThread)(te) }

// Accepted raises the knock event condition at establishment, and the
// application accepts or closes then: the handshake always proceeds (a
// batching-friendly compression of the Table 1 handshake; see
// DESIGN.md).
func (te *threadEvents) Accepted(c *tcp.Conn) {
	et := te.et()
	c.Cookie = et.gate.Grant(c, 0) // the accept system call sets the user's cookie
	et.events = append(et.events, Event{
		Type:    EvKnock,
		Handle:  c.Cookie,
		SrcIP:   c.Key().DstIP,
		SrcPort: c.Key().DstPort,
	})
}

func (te *threadEvents) Connected(c *tcp.Conn, ok bool) {
	et := te.et()
	// The cookie is read before a refused flow's handle is revoked.
	ev := Event{Type: EvConnected, Handle: c.Cookie, Cookie: et.gate.Cookie(c.Cookie), Outcome: ok}
	if !ok {
		et.gate.Revoke(c.Cookie)
	}
	et.events = append(et.events, ev)
}

func (te *threadEvents) Recv(c *tcp.Conn, buf *mem.Mbuf, data []byte) {
	et := te.et()
	if buf != nil {
		buf.Ref()
		buf.ReadOnly = true // mapped read-only into ring 3 (§4.5)
		// This thread's user program returns it: a flow migrated with
		// a reassembly queue hands up buffers of the source's pool.
		buf.Owner = et.drv.Pool.Owner
	}
	et.gate.Delivered(c.Cookie, len(data))
	et.events = append(et.events, Event{
		Type: EvRecv, Handle: c.Cookie, Cookie: et.gate.Cookie(c.Cookie),
		Mbuf: buf, Data: data, Bytes: len(data),
	})
}

func (te *threadEvents) Sent(c *tcp.Conn, acked, released int) {
	et := te.et()
	et.events = append(et.events, Event{
		Type: EvSent, Handle: c.Cookie, Cookie: et.gate.Cookie(c.Cookie),
		Bytes: acked, Window: c.UsableWindow(), Released: released,
	})
}

func (te *threadEvents) RemoteClosed(c *tcp.Conn) {
	et := te.et()
	et.events = append(et.events, Event{Type: EvEOF, Handle: c.Cookie, Cookie: et.gate.Cookie(c.Cookie)})
}

func (te *threadEvents) Dead(c *tcp.Conn, reason tcp.Reason) {
	et := te.et()
	// The cookie is read before the handle is revoked.
	ev := Event{Type: EvDead, Handle: c.Cookie, Cookie: et.gate.Cookie(c.Cookie), Reason: reason}
	et.gate.Revoke(c.Cookie)
	et.events = append(et.events, ev)
}

// UserAPI is the application-visible system interface of one elastic
// thread: batched system calls plus the few unbatched services (listen,
// timers). libix wraps it; applications normally never see it directly.
type UserAPI struct {
	et    *ElasticThread
	meter *sim.Meter // non-nil only during the user phase
}

// ExpectedConns reports the host-wide anticipated flow population from
// the dataplane configuration (0 = unknown). User libraries presize
// their connection tables from it.
func (u *UserAPI) ExpectedConns() int { return u.et.dp.cfg.ExpectedConns }

// Now returns virtual time (ns).
func (u *UserAPI) Now() int64 { return int64(u.et.dp.eng.Now()) }

// Charge accounts application CPU time on this thread's core.
func (u *UserAPI) Charge(d time.Duration) {
	if u.meter != nil {
		u.meter.Charge(d)
	} else {
		u.et.pendingCharge += d
	}
}

// Elapsed returns the CPU time charged so far in the current cycle (the
// thread's virtual progress within the batch).
func (u *UserAPI) Elapsed() time.Duration {
	if u.meter != nil {
		return u.meter.Elapsed()
	}
	return u.et.pendingCharge
}

// Queue appends a batched system call for the next kernel phase.
func (u *UserAPI) Queue(sc Syscall) {
	u.et.syscalls = append(u.et.syscalls, sc)
	if u.meter == nil {
		u.et.wake()
	}
}

// Connect issues a connect syscall.
func (u *UserAPI) Connect(cookie uint64, dst wire.IPv4, port uint16) {
	u.Queue(Syscall{Type: SysConnect, Cookie: cookie, DstIP: dst, DstPort: port})
}

// Accept issues an accept syscall.
func (u *UserAPI) Accept(handle uint64, cookie uint64) {
	u.Queue(Syscall{Type: SysAccept, Handle: handle, Cookie: cookie})
}

// Sendv issues a sendv syscall; the result's N reports accepted bytes.
// backs is nil or names the pooled memory of each sg entry.
func (u *UserAPI) Sendv(handle uint64, sg [][]byte, backs []fabric.Backing) {
	u.Queue(Syscall{Type: SysSendv, Handle: handle, SG: sg, Backs: backs})
}

// RecvDone returns n consumed bytes and recycles bufs.
func (u *UserAPI) RecvDone(handle uint64, n int, bufs []*mem.Mbuf) {
	u.Queue(Syscall{Type: SysRecvDone, Handle: handle, Bytes: n, Bufs: bufs})
}

// Close issues an orderly close.
func (u *UserAPI) Close(handle uint64) { u.Queue(Syscall{Type: SysClose, Handle: handle}) }

// Abort issues a RST close.
func (u *UserAPI) Abort(handle uint64) { u.Queue(Syscall{Type: SysAbort, Handle: handle}) }

// TxChunks exposes the thread's TX arena chunk pool. libix draws
// per-connection transmit arenas from it; like every hot-path pool it is
// per-thread memory provisioned from the dataplane's region grant.
func (u *UserAPI) TxChunks() *mem.TxChunkPool { return u.et.txpool }

// Listen binds this elastic thread's stack to port (per-thread listener;
// RSS spreads incoming flows across threads).
func (u *UserAPI) Listen(port uint16) error {
	_, err := u.et.ns.TCP().Listen(port, nil)
	return err
}

// After registers a user timer: at its deadline it appends an EvTimer
// event condition to this thread, or to thread 0 if this thread's core
// has been revoked by then, and wakes that thread, whose next user phase
// runs it.
func (u *UserAPI) After(d time.Duration, fn func()) {
	et := u.et
	et.dp.eng.After(d, func() {
		if et.stopped {
			et = et.dp.threads[0]
		}
		et.events = append(et.events, Event{Type: EvTimer, Fn: fn})
		et.wake()
	})
}

// TryWriteMbuf attempts to modify a message buffer, enforcing the
// read-only mapping of incoming buffers (§4.5). Used by tests to show a
// malicious application cannot corrupt dataplane memory.
func (u *UserAPI) TryWriteMbuf(m *mem.Mbuf, b []byte) error {
	if err := u.et.gate.CheckWritable(m.ReadOnly); err != nil {
		return err
	}
	m.Append(b)
	return nil
}

// quiesce synchronously completes the thread's in-flight user work:
// pending event conditions are delivered, queued batched system calls
// execute against their original handles, and return codes reach the user
// library — leaving no user batch state in flight. This is the quiescence
// a flow-group migration needs beyond what run-to-completion boundaries
// already guarantee. Migration points are rare and coarse-grained (§4.4),
// so the synchronous processing is acceptable.
func (et *ElasticThread) quiesce() {
	for len(et.events) > 0 || len(et.syscalls) > 0 || len(et.results) > 0 {
		events := et.events
		res := et.results
		et.events = nil
		et.results = nil
		if len(events) > 0 || len(res) > 0 {
			et.user.Run(et.api, events, res)
		}
		if batch := et.syscalls; len(batch) > 0 {
			et.syscalls = nil
			m := &sim.Meter{}
			for i := range batch {
				et.results = append(et.results, et.dispatch(&batch[i], m))
			}
		}
	}
	// Pure ACKs owed by the drained batch leave now, as at cycle end —
	// and the frames go straight to the TX ring: a thread quiesced for
	// revocation will not reach another cycle end to post them.
	et.ns.Flush()
	et.drv.Post()
}

// RxQueueLen reports the thread's RX descriptor ring occupancy — the
// queue depth signal the dataplane exports to the control plane (§3:
// "the dataplane can also monitor queue depths at the NIC edge and
// signal the control plane to allocate additional resources").
func (et *ElasticThread) RxQueueLen() int { return et.drv.RX.Len() }

// CoreUtilization reports the busy fraction of the thread's hardware
// thread since the last stats reset.
func (et *ElasticThread) CoreUtilization() float64 { return et.core.Utilization() }

// Pool exposes the thread's mbuf pool (tests and CP accounting).
func (et *ElasticThread) Pool() *mem.MbufPool { return et.drv.Pool }

// TxPool exposes the thread's TX arena chunk pool (conservation checks).
func (et *ElasticThread) TxPool() *mem.TxChunkPool { return et.txpool }

// ResetUtilWindow starts a fresh utilization measurement window (used by
// the control plane's policy loop).
func (et *ElasticThread) ResetUtilWindow() { et.core.ResetStats() }
