package harness

import (
	"fmt"
	"time"

	"ix/internal/apps/incast"
)

// IncastSetup describes one N-to-1 synchronized-burst measurement: N
// sender machines burst Burst bytes each at barrier instants toward one
// sink whose switch egress port has a shallow EgressBuffer — the classic
// incast collapse, swept over tcp.Config.MinRTO (the paper's §4.2 cites
// supporting retransmission timeouts down to 16 µs for exactly this).
type IncastSetup struct {
	// ServerArch/SenderArch select the sink and sender architectures;
	// the zero value is ArchIX (callers wanting the paper's Linux
	// client fleet set SenderArch: ArchLinux explicitly).
	ServerArch Arch
	SenderArch Arch
	Senders    int
	Burst      int
	// EgressBuffer bounds the switch egress toward the sink, in bytes
	// (default 32 KB — a Trident+-class shallow per-port share; the
	// default 8 KB Burst fits the initial window, so overflow drops
	// whole window tails and recovery is RTO-bound, the regime the
	// 16 µs floor targets).
	EgressBuffer int
	// MinRTO applies to every host (0 = the 200 µs default).
	MinRTO time.Duration
	// Rounds barriers are spaced Period apart, the first at Warmup.
	Rounds int
	Period time.Duration
	Warmup time.Duration
	Seed   int64
}

// IncastResult is one measured incast point.
type IncastResult struct {
	// GoodputBps is aggregate burst payload over mean completion time.
	GoodputBps float64
	// MeanCompletion/P99Completion: synchronized start to last sender's
	// full acknowledgment.
	MeanCompletion time.Duration
	P99Completion  time.Duration
	RoundsDone     int
	RoundsFailed   int
	// EgressDrops counts switch tail drops toward the sink;
	// Retransmits/Timeouts aggregate the sender stacks' counters.
	EgressDrops uint64
	Retransmits uint64
	SinkBytes   uint64
	// FramesLeaked is the cluster frame-pool imbalance after drain
	// (must be 0: drops and retransmissions must conserve frames).
	FramesLeaked int
	// MbufsLeaked is the receive-mbuf imbalance at the same point.
	MbufsLeaked int
}

// RunIncast executes one synchronized incast configuration.
func RunIncast(s IncastSetup) IncastResult {
	if s.Seed == 0 {
		s.Seed = 11
	}
	if s.Senders <= 0 {
		s.Senders = 16
	}
	if s.Burst <= 0 {
		s.Burst = 8 << 10
	}
	if s.EgressBuffer <= 0 {
		s.EgressBuffer = 32 << 10
	}
	if s.Rounds <= 0 {
		s.Rounds = 8
	}
	if s.Period <= 0 {
		s.Period = 4 * time.Millisecond
	}
	if s.Warmup <= 0 {
		s.Warmup = time.Millisecond
	}
	cl := NewCluster(s.Seed)
	m := incast.NewMetrics()
	const port = 5001
	sink := cl.AddHost("sink", HostSpec{
		Arch:    s.ServerArch,
		Cores:   1,
		MinRTO:  s.MinRTO,
		Factory: incast.SinkFactory(port, s.Burst, m),
	})
	cl.LimitEgress(sink, s.EgressBuffer)
	for i := 0; i < s.Senders; i++ {
		cl.AddHost("sender", HostSpec{
			Arch:   s.SenderArch,
			Cores:  1,
			MinRTO: s.MinRTO,
			Factory: incast.SenderFactory(incast.Config{
				ServerIP: sink.IP(),
				Port:     port,
				Burst:    s.Burst,
				Start:    s.Warmup,
				Period:   s.Period,
				Rounds:   s.Rounds,
				Metrics:  m,
			}),
		})
	}
	cl.Start()
	cl.Run(s.Warmup + time.Duration(s.Rounds)*s.Period + s.Period)
	m.Running = false
	cl.Run(20 * time.Millisecond) // drain retransmissions and ACKs

	res := IncastResult{
		MeanCompletion: m.Completion.Mean(),
		P99Completion:  m.Completion.Quantile(0.99),
		RoundsDone:     int(m.RoundsDone.Total()),
		RoundsFailed:   int(m.RoundsFailed.Total()),
		EgressDrops:    cl.EgressDrops(sink),
		SinkBytes:      m.SinkBytes.Total(),
		FramesLeaked:   cl.FramesInUse(),
		MbufsLeaked:    cl.MbufsInUse(),
	}
	for _, lh := range cl.linuxes {
		res.Retransmits += lh.Stack().TCP().Retransmits
	}
	for _, mh := range cl.mtcps {
		for i := 0; i < mh.Cores(); i++ {
			res.Retransmits += mh.Stack(i).TCP().Retransmits
		}
	}
	for _, dp := range cl.ixs {
		for i := 0; i < dp.Threads(); i++ {
			res.Retransmits += dp.Thread(i).Stack().TCP().Retransmits
		}
	}
	if res.MeanCompletion > 0 {
		total := float64(s.Senders) * float64(s.Burst) * 8
		res.GoodputBps = total / res.MeanCompletion.Seconds()
	}
	return res
}

// incastRTOs is the MinRTO sweep of the incast experiment: the 200 µs
// default down to the paper-cited 16 µs floor.
var incastRTOs = []time.Duration{
	200 * time.Microsecond,
	100 * time.Microsecond,
	50 * time.Microsecond,
	16 * time.Microsecond,
}

// Incast regenerates the incast goodput-collapse/recovery figure: for
// each MinRTO, aggregate goodput vs fan-in. Collapse deepens with
// fan-in under the 200 µs floor (whole-window tail drops stall flows
// for an RTO that dwarfs the transfer), while the 16 µs floor recovers
// most of it — the justification for fine-grained timeouts.
func Incast(sc Scale) *Result {
	r := &Result{
		Name:   "incast goodput vs fan-in (MinRTO sweep)",
		Figure: "incast (§4.2: 16µs RTO floor)",
		XLabel: "senders",
		YLabel: "goodput Gbps",
	}
	fanins := []int{4, 8, 16, 24, 32}
	rounds := 6
	if sc.Window >= 20*time.Millisecond {
		rounds = 10
	}
	for _, rto := range incastRTOs {
		for _, n := range fanins {
			res := RunIncast(IncastSetup{
				SenderArch: ArchLinux,
				Senders:    n,
				MinRTO:     rto,
				Rounds:     rounds,
				Seed:       31,
			})
			r.AddPoint(fmt.Sprintf("MinRTO=%v", rto), float64(n), res.GoodputBps/1e9)
			if res.FramesLeaked != 0 || res.MbufsLeaked != 0 {
				r.Notes = append(r.Notes, fmt.Sprintf(
					"INVARIANT VIOLATION: %d frames and %d mbufs leaked at MinRTO=%v N=%d",
					res.FramesLeaked, res.MbufsLeaked, rto, n))
			}
		}
	}
	r.Notes = append(r.Notes,
		"whole-window egress tail drops stall flows for MinRTO; 16µs floor recovers goodput")
	return r
}
