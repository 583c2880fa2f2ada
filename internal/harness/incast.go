package harness

import (
	"fmt"
	"time"

	"ix/internal/apps/incast"
	"ix/internal/netstack"
)

// IncastSetup describes one N-to-1 synchronized-burst measurement: N
// Linux sender machines burst 8 KB each at barrier instants toward one IX
// sink whose switch egress port has a shallow 32 KB buffer — the classic
// incast collapse, swept over tcp.Config.MinRTO (the paper's §4.2 cites
// supporting retransmission timeouts down to 16 µs for exactly this).
// The 32 KB is a Trident+-class shallow per-port share; the 8 KB burst
// fits the initial window, so overflow drops whole window tails and
// recovery is RTO-bound, the regime the 16 µs floor targets.
type IncastSetup struct {
	Senders int
	// MinRTO applies to every host (0 = the 200 µs default).
	MinRTO time.Duration
	// Rounds barriers are spaced 4 ms apart, the first at 1 ms.
	Rounds int
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
	// Retransmits aggregates every stack's counter.
	EgressDrops uint64
	Retransmits uint64
	SinkBytes   uint64
	// Leaked is the cluster's pool imbalance after drain (must be zero:
	// drops and retransmissions must conserve frames).
	Leaked Leaks
}

// RunIncast executes one synchronized incast configuration.
func RunIncast(s IncastSetup) IncastResult {
	const port, burst = 5001, 8 << 10
	const period, warmup = 4 * time.Millisecond, time.Millisecond
	cl := NewCluster(s.Seed)
	m := incast.NewMetrics()
	sink := cl.AddHost("sink", HostSpec{
		Arch:    ArchIX,
		Cores:   1,
		MinRTO:  s.MinRTO,
		Factory: incast.SinkFactory(port, burst, m),
	})
	cl.LimitEgress(sink, 32<<10)
	for i := 0; i < s.Senders; i++ {
		cl.AddHost("sender", HostSpec{
			Arch:   ArchLinux,
			Cores:  1,
			MinRTO: s.MinRTO,
			Factory: incast.SenderFactory(incast.Config{
				ServerIP: sink.IP(),
				Port:     port,
				Burst:    burst,
				Start:    warmup,
				Period:   period,
				Rounds:   s.Rounds,
				Metrics:  m,
			}),
		})
	}
	cl.Start()
	cl.Run(warmup + time.Duration(s.Rounds)*period + period)
	m.Running = false
	cl.Run(20 * time.Millisecond) // drain retransmissions and ACKs

	res := IncastResult{
		MeanCompletion: m.Completion.Mean(),
		P99Completion:  m.Completion.Quantile(0.99),
		RoundsDone:     int(m.RoundsDone.Total()),
		RoundsFailed:   int(m.RoundsFailed.Total()),
		EgressDrops:    cl.EgressDrops(sink),
		SinkBytes:      m.SinkBytes.Total(),
		Leaked:         cl.Leaks(),
	}
	cl.eachStack(func(ns *netstack.Stack) { res.Retransmits += ns.TCP().Retransmits })
	if res.MeanCompletion > 0 {
		total := float64(s.Senders) * burst * 8
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
				Senders: n,
				MinRTO:  rto,
				Rounds:  rounds,
				Seed:    31,
			})
			r.AddPoint(fmt.Sprintf("MinRTO=%v", rto), float64(n), res.GoodputBps/1e9)
			if res.Leaked != (Leaks{}) {
				r.Notes = append(r.Notes, fmt.Sprintf(
					"INVARIANT VIOLATION: leaked %+v at MinRTO=%v N=%d", res.Leaked, rto, n))
			}
		}
	}
	r.Notes = append(r.Notes,
		"whole-window egress tail drops stall flows for MinRTO; 16µs floor recovers goodput")
	return r
}
