// Package cost defines the calibrated virtual-time cost model for the
// three OS architectures compared in the paper: the IX dataplane, the
// tuned Linux 3.16 kernel stack, and the mTCP user-level stack. Protocol
// and application code in this repository executes as real Go code; these
// constants determine how many virtual nanoseconds each stage charges to
// its core. They were calibrated so that the microbenchmark *shapes* of
// §5 hold (orderings, saturation points, crossovers); the claims tests
// in internal/harness pin those shapes.
//
// The constants are deliberately centralized and documented here rather
// than scattered through the stacks, so every modelling assumption is
// auditable in one place.
package cost

import "time"

// PerByte is a cost expressed in nanoseconds per byte, allowing sub-
// nanosecond granularity (time.Duration cannot represent picoseconds).
type PerByte float64

// Cost returns the virtual time to process n bytes.
func (p PerByte) Cost(n int) time.Duration {
	if n <= 0 || p <= 0 {
		return 0
	}
	return time.Duration(float64(n) * float64(p))
}

// IX is the dataplane cost model (§4.2–4.4). The dataplane runs to
// completion with adaptive batching, so fixed per-cycle costs amortize
// over the batch; zero-copy means no per-byte copy terms on the RX path.
type IX struct {
	// CyclePoll is the fixed cost per run-to-completion cycle: polling
	// the RX descriptor ring and bookkeeping (step 1 of Fig. 1b).
	CyclePoll time.Duration
	// DescriptorPost is the PCIe doorbell write cost; §6 explains these
	// had to be coalesced (≥32 descriptors per write) to scale.
	DescriptorPost time.Duration
	// ProtoRx is TCP/IP receive processing per packet in the dataplane
	// kernel (lwIP-derived stack, no socket locks, pool allocation).
	ProtoRx time.Duration
	// ProtoRxByte is the per-byte receive term (checksum validation and
	// header-adjacent cache effects; no copy — mbufs are zero-copy).
	ProtoRxByte PerByte
	// ProtoTx is TCP/IP transmit processing per packet.
	ProtoTx time.Duration
	// ProtoTxByte is the per-byte transmit term (checksum; no copy).
	ProtoTxByte PerByte
	// UserTransition is one ring 0 ↔ ring 3 crossing inside VMX
	// non-root mode; §6 notes it costs about one L3 miss. Two are paid
	// per cycle (kernel→user, user→kernel), amortized over the batch.
	UserTransition time.Duration
	// Syscall is the per-entry cost of a *batched* system call: array
	// write, validation in the dune gate, dispatch.
	Syscall time.Duration
	// EventCond is the per-entry cost of generating an event condition.
	EventCond time.Duration
	// TimerCycle is the timer-wheel advance per cycle.
	TimerCycle time.Duration
	// ConnSetup is the extra cost of PCB allocation and teardown per
	// connection (handshake processing beyond plain segments).
	ConnSetup time.Duration
	// L3Miss is the stall of one LLC miss; connection-count scaling
	// multiplies this by MissesPerMsg(conns) (Fig. 4, DDIO discussion).
	L3Miss time.Duration

	// Ablation knobs (the harness's "ablations" experiment) — both zero
	// in the real IX model:
	//
	// CopyPerByte, when set, charges a per-byte copy on both RX and TX
	// (disabling the zero-copy API, like a conventional socket layer).
	CopyPerByte PerByte
	// NoDoorbellCoalesce, when true, pays one PCIe doorbell write per
	// received packet instead of coalescing ≥32 descriptors (the §6
	// hardware bottleneck).
	NoDoorbellCoalesce bool
}

// DefaultIX is the calibrated IX model.
func DefaultIX() IX {
	return IX{
		CyclePoll:      150 * time.Nanosecond,
		DescriptorPost: 90 * time.Nanosecond,
		ProtoRx:        140 * time.Nanosecond,
		ProtoRxByte:    0.12,
		ProtoTx:        115 * time.Nanosecond,
		ProtoTxByte:    0.10,
		UserTransition: 40 * time.Nanosecond,
		Syscall:        20 * time.Nanosecond,
		EventCond:      12 * time.Nanosecond,
		TimerCycle:     30 * time.Nanosecond,
		ConnSetup:      450 * time.Nanosecond,
		L3Miss:         86 * time.Nanosecond,
	}
}

// Linux is the tuned kernel-stack model (§5.1 baseline: pinned threads,
// affinitized interrupts, tuned moderation, libevent + epoll).
type Linux struct {
	// HardIRQ is interrupt entry/exit plus NAPI scheduling.
	HardIRQ time.Duration
	// SoftIRQPerPkt is kernel receive processing per packet: skb
	// allocation, socket lookup with locking, TCP input, backlog.
	SoftIRQPerPkt time.Duration
	// CopyPerByte is the copy between sk_buffs and user buffers,
	// charged on both read() and write() paths.
	CopyPerByte PerByte
	// SyscallEntry is one user↔kernel crossing for a conventional
	// system call (read/write/epoll_wait), including mitigation costs.
	SyscallEntry time.Duration
	// EpollDispatch is the per-ready-event cost inside epoll_wait.
	EpollDispatch time.Duration
	// SockRead is the fixed kernel cost of read() on a socket beyond
	// the crossing (fd lookup, lock, dequeue).
	SockRead time.Duration
	// SockWrite is the fixed kernel cost of write(): lock, skb alloc,
	// TCP output engine, qdisc, driver TX.
	SockWrite time.Duration
	// TxPerPkt is the per-segment transmit cost beyond SockWrite
	// (segmentation, qdisc, driver descriptor work).
	TxPerPkt time.Duration
	// WakeupLatency is the scheduler delay from softirq wakeup to the
	// pinned, blocked application thread resuming on its core.
	WakeupLatency time.Duration
	// CtxSwitch is a context switch between kernel softirq work and the
	// application thread sharing the core.
	CtxSwitch time.Duration
	// ConnSetup is per-connection kernel setup/teardown extra cost
	// (accept path, fd allocation, TIME_WAIT bookkeeping).
	ConnSetup time.Duration
	// L3Miss as for IX; Linux also touches more cache lines per packet,
	// captured in the fixed costs rather than the miss curve.
	L3Miss time.Duration
}

// DefaultLinux is the calibrated Linux model.
func DefaultLinux() Linux {
	return Linux{
		HardIRQ:       900 * time.Nanosecond,
		SoftIRQPerPkt: 1600 * time.Nanosecond,
		CopyPerByte:   0.25,
		SyscallEntry:  400 * time.Nanosecond,
		EpollDispatch: 180 * time.Nanosecond,
		SockRead:      800 * time.Nanosecond,
		SockWrite:     2100 * time.Nanosecond,
		TxPerPkt:      900 * time.Nanosecond,
		WakeupLatency: 8000 * time.Nanosecond,
		CtxSwitch:     1000 * time.Nanosecond,
		ConnSetup:     2800 * time.Nanosecond,
		L3Miss:        86 * time.Nanosecond,
	}
}

// MTCP is the user-level stack model (mTCP, NSDI '14): per-core TCP
// threads that poll the NIC and exchange batched queues with application
// threads. Throughput benefits from aggressive batching; latency pays for
// the coarse-grained handoff.
type MTCP struct {
	// PollRound is the fixed cost of one TCP-thread poll round.
	PollRound time.Duration
	// ProtoRx/ProtoTx are per-packet user-level TCP processing costs —
	// cheaper than Linux (no kernel crossings, pool allocation) but
	// heavier than IX's dataplane (flow-level locks with the app
	// thread, internal queueing).
	ProtoRx time.Duration
	ProtoTx time.Duration
	// CopyPerByte: mTCP copies between TCP buffers and application
	// buffers on both paths (its API is socket-like, not zero-copy).
	CopyPerByte PerByte
	// QueueOp is the per-event cost of the lock-free job/event queues
	// between the TCP thread and the application thread.
	QueueOp time.Duration
	// HandoffInterval is the batching granularity between the TCP
	// thread and application thread: events sit in the queues for up to
	// this long before the other side runs (the source of mTCP's added
	// latency; §2.3 and §5.2).
	HandoffInterval time.Duration
	// AppCall is the per-call overhead of the mTCP socket API
	// (mtcp_read/mtcp_write), much cheaper than a syscall.
	AppCall time.Duration
	// ConnSetup is per-connection setup/teardown extra cost.
	ConnSetup time.Duration
	L3Miss    time.Duration
}

// DefaultMTCP is the calibrated mTCP model.
func DefaultMTCP() MTCP {
	return MTCP{
		PollRound:       500 * time.Nanosecond,
		ProtoRx:         330 * time.Nanosecond,
		ProtoTx:         280 * time.Nanosecond,
		CopyPerByte:     0.25,
		QueueOp:         60 * time.Nanosecond,
		HandoffInterval: 23 * time.Microsecond,
		AppCall:         90 * time.Nanosecond,
		ConnSetup:       900 * time.Nanosecond,
		L3Miss:          86 * time.Nanosecond,
	}
}

// MissesPerMsg models Intel DDIO residency as a function of concurrent
// connection count on one server (Fig. 4): with up to ~10k connections
// all dataplane state fits in L3 and DMA transfers hit cache (≈1.4 misses
// per message); at 250k connections the TCP connection state dominates the
// working set and the workload averages ≈25 misses per message. We
// interpolate log-linearly between the two measured anchors.
func MissesPerMsg(conns int) float64 {
	const (
		fitConns = 10_000.0
		fitMiss  = 1.4
		maxConns = 250_000.0
		maxMiss  = 25.0
		logFit   = 4.0     // log10(10k)
		logMax   = 5.39794 // log10(250k)
	)
	c := float64(conns)
	if c <= fitConns {
		return fitMiss
	}
	if c >= maxConns {
		// Keep growing gently past the last anchor.
		return maxMiss * (1 + (c-maxConns)/maxConns*0.2)
	}
	lg := log10(c)
	frac := (lg - logFit) / (logMax - logFit)
	return fitMiss + frac*(maxMiss-fitMiss)
}

// log10 avoids importing math for one call site.
func log10(x float64) float64 {
	// Newton on ln, seeded by bit trickery, is overkill: use the series
	// via math is cleaner — but keep dependencies minimal and precision
	// adequate with a simple change-of-base through frexp-style loop.
	lg := 0.0
	for x >= 10 {
		x /= 10
		lg++
	}
	for x < 1 {
		x *= 10
		lg--
	}
	// x in [1,10): 3rd-order interpolation of log10 via ln approximation.
	// ln(x) with atanh series: ln(x) = 2*artanh((x-1)/(x+1)).
	t := (x - 1) / (x + 1)
	t2 := t * t
	ln := 2 * t * (1 + t2/3 + t2*t2/5 + t2*t2*t2/7)
	return lg + ln/2.302585092994046
}
