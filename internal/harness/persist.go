package harness

import (
	"time"

	"ix/internal/apps/echo"
)

// Pacing and budgets of the persistent-cluster measurement engine. All
// are virtual durations; every loop below advances the simulation in
// fixed steps and polls deterministic state, so a fixed-seed sweep is a
// pure function of its setup.
const (
	// drainStep/drainBudget bound the between-points RPC drain;
	// drainPerMsg extends the budget per in-flight RPC so large
	// populations get proportionally more time (budgets are upper
	// bounds — the poll exits as soon as the drain completes).
	drainStep   = 100 * time.Microsecond
	drainBudget = 20 * time.Millisecond
	drainPerMsg = 2 * time.Microsecond
	// establishStep paces the establishment poll; the budget scales
	// with the point's connection delta (quiet ramps run at a few
	// thousand conns/ms, so 4 µs/conn is several-fold slack for SYN
	// retransmission hiccups).
	establishStep    = 250 * time.Microsecond
	establishBase    = 2 * time.Millisecond
	establishPerConn = 4 * time.Microsecond
	// settleRun separates establishment from the measurement window,
	// letting handshake tails and pure-ACK exchanges quiesce.
	settleRun = time.Millisecond
)

// EchoBench is a persistent, warmed echo testbed reused across the sweep
// points of one configuration — the Fig. 4 establishment fast path.
// Where RunEcho pays a full cluster build and connection ramp per point,
// an EchoBench ramps quietly once and then moves up between points by
// draining in-flight RPCs, establishing only the delta of connections,
// and resetting meters without reallocating pools. Points must come in
// ascending size: the population only grows. Each point draws its seed
// material from a per-point schedule, so fixed-seed output is
// byte-identical run to run regardless of how many points preceded it.
type EchoBench struct {
	setup   EchoSetup
	cl      *Cluster
	m       *echo.Metrics
	fleet   *echo.Fleet
	threads int
	point   uint64
}

// NewEchoBench builds the warmed testbed: the full client fleet is
// created up front with an empty connection target; the first
// MeasurePoint establishes its population quietly.
func NewEchoBench(s EchoSetup) *EchoBench {
	s.ConnsPerThread = 0
	s.Outstanding = 1
	s.QuietRamp = true
	b := &EchoBench{
		setup:   s,
		m:       echo.NewMetrics(),
		fleet:   &echo.Fleet{},
		threads: s.ClientHosts * s.ClientCores,
	}
	b.cl = buildEchoCluster(&b.setup, b.m, b.fleet)
	b.cl.Start()
	return b
}

// Threads returns the client fleet's thread count.
func (b *EchoBench) Threads() int { return b.threads }

// Stop winds the fleet down (no further reconnects).
func (b *EchoBench) Stop() { b.m.Running = false }

// runUntil advances the simulation in fixed steps until done reports
// true or the budget is exhausted; it reports whether done held. The
// polling cadence is fixed, so the stopping time is deterministic.
func (b *EchoBench) runUntil(budget, step time.Duration, done func() bool) bool {
	for elapsed := time.Duration(0); elapsed < budget; elapsed += step {
		if done() {
			return true
		}
		b.cl.Run(step)
	}
	return done()
}

// pacingTime returns how long the fleet's own connect pacing needs to
// open `delta` connections: each thread works through batches of
// RampBatch every RampGap, so the slowest thread takes
// ceil(perThread/batch) gaps. This is the floor any establishment
// budget must sit above.
func (b *EchoBench) pacingTime(delta int) time.Duration {
	batch, gap := b.setup.RampBatch, b.setup.RampGap
	db, dg := echo.DefaultRampPacing()
	if batch <= 0 {
		batch = db
	}
	if gap <= 0 {
		gap = dg
	}
	perThread := (delta + b.threads - 1) / b.threads
	steps := (perThread + batch - 1) / batch
	return time.Duration(steps) * gap
}

// pointSeed is the per-point seed schedule: a splitmix64 scramble of the
// cluster seed and the point ordinal. Every per-point random draw (e.g.
// verify-mode patterns) descends from it, never from sweep history.
func pointSeed(base int64, point uint64) uint64 {
	z := uint64(base) + point*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MeasurePoint moves the warmed testbed to total connections (rotation
// depth outstanding per thread) and measures one window, returning the
// same steady-state figures RunEcho would. Between points it drains
// in-flight RPCs, establishes only the connection delta (quiet ramp),
// and resets meters in place. total may not fall below the population
// an earlier point established.
func (b *EchoBench) MeasurePoint(total, outstanding int, window time.Duration) EchoResult {
	per := (total + b.threads - 1) / b.threads
	if per < 1 {
		per = 1
	}
	out := outstanding
	if out < 1 {
		out = 1
	}
	if per < out {
		out = per
	}
	target := per * b.threads

	// Quiesce: no new RPCs, in-flight ones complete. The budget is
	// per-point — proportional to this point's in-flight population,
	// floored at the fixed constant — so a deep rotation at one sweep
	// point cannot consume slack that later points rely on.
	b.fleet.Pause()
	db := drainBudget + time.Duration(b.fleet.InFlight())*drainPerMsg
	b.runUntil(db, drainStep, func() bool { return b.fleet.InFlight() == 0 })

	// Grow the population by delta establishment.
	b.point++
	delta := target - b.fleet.Open()
	b.fleet.Retarget(per, out, pointSeed(b.setup.Seed, b.point))
	budget := establishBase + time.Duration(delta)*establishPerConn + b.pacingTime(delta)
	b.runUntil(budget, establishStep, func() bool {
		return b.fleet.Open() >= target && b.fleet.Pending() == 0
	})
	b.cl.Run(settleRun)

	// Fresh window over reused pools and meters.
	b.m.ResetWindow()
	resetEchoServerStats(b.cl)
	b.fleet.Resume()
	b.cl.Run(window)
	return collectEcho(b.cl, &b.setup, b.m, window)
}
