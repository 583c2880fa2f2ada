// Package cp implements the IX control plane (§4.1): the IXCP policy
// daemon that, together with the Linux kernel, owns coarse-grained
// resource allocation — cores, large-page memory and NIC hardware queues
// — across dataplanes. The paper implements the mechanisms and leaves
// dynamic policies to future work (§6); this package provides both the
// mechanism plumbing and a working elastic-thread policy: it watches NIC-
// edge queue depths and core utilization and grows or shrinks a
// dataplane's elastic thread set, driving the RSS re-balancing and flow
// migration implemented in the dataplane.
package cp

import (
	"time"

	"ix/internal/core"
	"ix/internal/sim"
	"ix/internal/stats"
)

// Policy parameterizes the elastic scaling loop.
type Policy struct {
	// Interval between policy evaluations (coarse-grained, §4.4).
	Interval time.Duration
	// AddQueueDepth: grow when any RX ring holds at least this many
	// frames at evaluation time (congestion building at the NIC edge).
	AddQueueDepth int
	// AddUtil: grow when average core utilization over the last
	// interval reaches this fraction (saturation without ring growth —
	// closed-loop clients adapt their rate to the server).
	AddUtil float64
	// RemoveUtil: shrink when average core utilization over the last
	// interval falls below this fraction.
	RemoveUtil float64
	// ShrinkGuard uses the smoothed cycles-per-packet estimate to veto a
	// shrink that would immediately saturate the survivors: the projected
	// post-shrink utilization (this window's packet count × the EWMA of
	// ns-per-packet, spread over one fewer thread) must stay below
	// ShrinkGuard × AddUtil. The EWMA — not the same window's
	// measurement, whose terms would cancel back to plain utilization —
	// is what makes this a service-time signal: a low-load window is
	// judged against the cost per packet the dataplane has recently
	// demonstrated, not against its own noisy sample. Zero disables the
	// guard.
	ShrinkGuard float64
	// MinThreads/MaxThreads bound the allocation.
	MinThreads, MaxThreads int
	// Cooldown intervals after a change before acting again.
	Cooldown int
	// MaxInterval, when above Interval, makes the sampling cadence
	// load-adaptive: while the dataplane is idle (no packets, empty
	// rings, near-zero utilization) the controller doubles its interval
	// toward this bound, cutting the idle cluster's event load; the
	// first sample that shows load snaps the cadence back to Interval.
	// Zero keeps the fixed cadence.
	MaxInterval time.Duration
}

// DefaultPolicy returns a conservative elastic policy.
func DefaultPolicy() Policy {
	return Policy{
		Interval:      500 * time.Microsecond,
		AddQueueDepth: 96,
		AddUtil:       0.9,
		// RemoveUtil can sit fairly high because the cycles-per-packet
		// shrink guard below vetoes any shrink the measured service time
		// says would immediately re-saturate the survivors.
		RemoveUtil:  0.45,
		ShrinkGuard: 0.8,
		MinThreads:  1,
		Cooldown:    4,
		MaxInterval: 4 * time.Millisecond,
	}
}

// Sample is one policy-interval observation of the managed dataplane —
// the control plane's view of the queue-depth and cycles-per-packet
// signals the dataplane exports (§3).
type Sample struct {
	At      sim.Time
	Threads int
	// Window is the observation interval this sample covers (equal to
	// Policy.Interval under load; longer while the adaptive cadence is
	// backed off on an idle cluster). Rates and per-packet figures are
	// computed over it.
	Window time.Duration
	// AvgUtil is the mean busy fraction across elastic threads.
	AvgUtil float64
	// MaxDepth is the deepest RX descriptor ring (NIC-edge queueing).
	MaxDepth int
	// Pkts is packets delivered during the interval; PPS its rate.
	Pkts uint64
	PPS  float64
	// NsPerPkt is busy time per delivered packet over the interval — the
	// cycles-per-packet signal (service time including batching
	// amortization).
	NsPerPkt time.Duration
}

// Event records one control plane action, for inspection and tests.
type Event struct {
	At      sim.Time
	Action  string
	Threads int
}

// Controller is IXCP: one instance manages one dataplane.
type Controller struct {
	eng    *sim.Engine
	dp     *core.Dataplane
	policy Policy

	cooldown int
	stopped  bool
	prevRx   uint64
	// interval is the current sampling cadence; lastAt stamps the last
	// observation (the adaptive-cadence window bookkeeping).
	interval time.Duration
	lastAt   sim.Time
	// svcEWMA is the exponentially smoothed ns-per-packet estimate
	// (α = 1/8), the service-time signal behind the shrink guard.
	svcEWMA time.Duration

	// Log of actions taken.
	Log []Event
	// History holds one Sample per policy interval (telemetry for the
	// elastic-scaling harness and tests).
	History []Sample
	// SvcTime is the distribution of the per-interval cycles-per-packet
	// signal over the run.
	SvcTime *stats.Histogram
}

// New builds a controller for dp.
func New(eng *sim.Engine, dp *core.Dataplane, policy Policy) *Controller {
	if policy.Interval <= 0 {
		policy.Interval = DefaultPolicy().Interval
	}
	if policy.MaxThreads <= 0 {
		policy.MaxThreads = dp.MaxThreads()
	}
	if policy.MinThreads <= 0 {
		policy.MinThreads = 1
	}
	return &Controller{
		eng:      eng,
		dp:       dp,
		policy:   policy,
		interval: policy.Interval,
		SvcTime:  stats.NewHistogram(),
	}
}

// Policy returns the controller's active policy.
func (c *Controller) Policy() Policy { return c.policy }

// Start begins the periodic policy loop.
func (c *Controller) Start() {
	c.resetWindow()
	c.interval = c.policy.Interval
	c.lastAt = c.eng.Now()
	c.eng.After(c.interval, c.tick)
}

// Stop halts the loop.
func (c *Controller) Stop() { c.stopped = true }

func (c *Controller) resetWindow() {
	for i := 0; i < c.dp.Threads(); i++ {
		c.dp.Thread(i).ResetUtilWindow()
	}
}

// observe gathers one interval's signals from the dataplane.
func (c *Controller) observe() Sample {
	s := Sample{At: c.eng.Now(), Threads: c.dp.Threads()}
	s.Window = time.Duration(s.At - c.lastAt)
	if s.Window <= 0 {
		s.Window = c.policy.Interval
	}
	c.lastAt = s.At
	var utilSum float64
	var rx uint64
	for i := 0; i < s.Threads; i++ {
		et := c.dp.Thread(i)
		if d := et.RxQueueLen(); d > s.MaxDepth {
			s.MaxDepth = d
		}
		utilSum += et.CoreUtilization()
		rx += et.RxPackets
	}
	s.AvgUtil = utilSum / float64(s.Threads)
	// Per-thread RxPackets are cumulative; a removed thread takes its
	// count with it, so clamp the window on shrink.
	if rx < c.prevRx {
		c.prevRx = rx
	}
	s.Pkts = rx - c.prevRx
	c.prevRx = rx
	s.PPS = stats.Rate(s.Pkts, s.Window)
	if s.Pkts > 0 {
		busy := time.Duration(utilSum * float64(s.Window))
		s.NsPerPkt = busy / time.Duration(s.Pkts)
		c.SvcTime.Record(s.NsPerPkt)
		if c.svcEWMA == 0 {
			c.svcEWMA = s.NsPerPkt
		} else {
			c.svcEWMA += (s.NsPerPkt - c.svcEWMA) / 8
		}
	}
	c.History = append(c.History, s)
	return s
}

// SvcEWMA returns the smoothed cycles-per-packet estimate (zero until
// the first packet-carrying interval).
func (c *Controller) SvcEWMA() time.Duration { return c.svcEWMA }

func (c *Controller) tick() {
	if c.stopped {
		return
	}
	defer func() { c.eng.After(c.interval, c.tick) }()
	s := c.observe()
	c.adaptInterval(s)
	if c.cooldown > 0 {
		c.cooldown--
		c.resetWindow()
		return
	}
	n := s.Threads
	grow := s.MaxDepth >= c.policy.AddQueueDepth ||
		(c.policy.AddUtil > 0 && s.AvgUtil >= c.policy.AddUtil)
	shrink := s.AvgUtil < c.policy.RemoveUtil && n > c.policy.MinThreads
	if shrink && c.policy.ShrinkGuard > 0 && c.policy.AddUtil > 0 && c.svcEWMA > 0 && n > 1 {
		// Cycles-per-packet veto: would this window's packet load, at the
		// service time the dataplane has recently demonstrated (EWMA, not
		// this window's own noisy sample), saturate one fewer thread?
		projected := float64(s.Pkts) * float64(c.svcEWMA) /
			(float64(n-1) * float64(c.policy.Interval))
		if projected >= c.policy.ShrinkGuard*c.policy.AddUtil {
			shrink = false
		}
	}
	switch {
	case grow && n < c.policy.MaxThreads:
		if err := c.dp.AddElasticThread(); err == nil {
			c.Log = append(c.Log, Event{At: c.eng.Now(), Action: "add", Threads: c.dp.Threads()})
			c.cooldown = c.policy.Cooldown
		}
	case shrink:
		if err := c.dp.RemoveElasticThread(); err == nil {
			c.Log = append(c.Log, Event{At: c.eng.Now(), Action: "remove", Threads: c.dp.Threads()})
			c.cooldown = c.policy.Cooldown
		}
	}
	c.resetWindow()
}

// adaptInterval applies the load-adaptive sampling cadence: back off
// toward MaxInterval while the dataplane is idle, snap back to Interval
// the moment a sample carries load. With the engine's hot paths now much
// faster, a fixed fine-grained cadence is a measurable share of an idle
// cluster's event load.
func (c *Controller) adaptInterval(s Sample) {
	if c.policy.MaxInterval <= c.policy.Interval {
		return
	}
	idle := s.Pkts == 0 && s.MaxDepth == 0 && s.AvgUtil < 0.01
	if idle {
		c.interval *= 2
		if c.interval > c.policy.MaxInterval {
			c.interval = c.policy.MaxInterval
		}
	} else {
		c.interval = c.policy.Interval
	}
}

// Interval reports the controller's current sampling cadence.
func (c *Controller) Interval() time.Duration { return c.interval }

// Threads reports the managed dataplane's current elastic thread count.
func (c *Controller) Threads() int { return c.dp.Threads() }
