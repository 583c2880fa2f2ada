package cp

import (
	"time"

	"ix/internal/sim"
)

// This file is the multi-tenant half of IXCP. The paper's control plane
// (§4.1) allocates cores across *multiple dataplanes* on one machine —
// each tenant runs its own IX instance — and leaves the policy to future
// work (§6). The Arbiter is that policy: it samples every tenant's tail
// latency and utilization on a coarse cadence and moves one core per
// decision from the tenant with the most headroom to the tenant
// violating its SLO, using the same elastic-thread grow/shrink (and thus
// flow-group migration) mechanism the single-dataplane Controller drives.

// Resizer is the core-ownership surface of one managed dataplane — the
// subset of *core.Dataplane the arbiter needs, kept narrow so policy
// tests can drive it with fakes.
type Resizer interface {
	Threads() int
	AddElasticThread() error
	RemoveElasticThread() error
}

// Member is one tenant under arbitration: a dataplane, its SLO, its core
// bounds and its telemetry probes.
type Member struct {
	Name string
	DP   Resizer
	// SLO is the p99 tail-latency target; zero means best-effort (the
	// member never counts as violating, so it can only donate).
	SLO time.Duration
	// MinCores/MaxCores bound what arbitration may do to this member
	// (Min defaults to 1; Max defaults to the cluster core budget).
	MinCores, MaxCores int
	// P99 samples the member's tail latency over the window since the
	// previous call (reset-on-read); required.
	P99 func() time.Duration
	// Util samples mean core utilization over the same window
	// (reset-on-read); optional — nil reads as zero, which makes the
	// member always pass the donor-utilization check.
	Util func() float64
}

// ArbiterPolicy parameterizes the reallocation loop. The three
// hysteresis controls — ViolateAfter, the donor-headroom gap and
// Residency — are what keep two tenants oscillating near their SLO
// boundaries from ping-ponging a core every decision: a violation must
// persist, the donor must sit well below its own SLO (not merely below
// it), and a completed move freezes further moves for a few decisions.
type ArbiterPolicy struct {
	// Interval between arbitration decisions (the reallocation cadence).
	Interval time.Duration
	// ViolateAfter is the number of consecutive violating samples
	// required before a member is eligible to receive a core.
	ViolateAfter int
	// DonorHeadroom: a member may donate only while its p99 is at most
	// this fraction of its own SLO. The gap between 1.0 and this value
	// is the hysteresis band that keeps near-boundary tenants out of
	// the donor pool.
	DonorHeadroom float64
	// Residency is the number of decisions skipped after a completed
	// move, letting the receiver's queues drain and its p99 window
	// reflect the new allocation before the arbiter acts again.
	Residency int
}

// DefaultArbiterPolicy returns the conservative arbitration policy.
func DefaultArbiterPolicy() ArbiterPolicy {
	return ArbiterPolicy{
		Interval:      time.Millisecond,
		ViolateAfter:  2,
		DonorHeadroom: 0.6,
		Residency:     1,
	}
}

// donorUtil: a member may donate only while its mean utilization is at
// most this fraction (a saturated tenant is no donor even if its latency
// currently looks healthy).
const donorUtil = 0.75

// MemberSample is one member's telemetry at one decision.
type MemberSample struct {
	Name  string
	Cores int
	P99   time.Duration
	Util  float64
	// Violating is true when P99 exceeded the member's SLO this window;
	// Streak counts consecutive violating samples including this one.
	Violating bool
	Streak    int
}

// Move records one completed core transfer. From is empty when the core
// came from the unallocated budget rather than another member.
type Move struct {
	At       sim.Time
	Decision int
	From, To string
}

// Arbiter is the cluster-level core arbiter: one instance manages the
// core budget of one machine shared by several tenant dataplanes.
type Arbiter struct {
	eng     *sim.Engine
	pol     ArbiterPolicy
	members []*Member
	budget  int

	streaks  []int
	cooldown int
	stopped  bool

	// Decisions counts arbitration ticks; Moves logs completed
	// transfers; History holds one row of member samples per decision
	// (telemetry for the claim tests and the tenants experiment).
	Decisions int
	Moves     []Move
	History   [][]MemberSample
}

// NewArbiter builds an arbiter over members sharing a budget of cores.
// budget <= 0 means the sum of the members' current allocations (a fully
// subscribed machine). Member bounds are normalized here: MinCores
// defaults to 1, MaxCores to the budget.
func NewArbiter(eng *sim.Engine, pol ArbiterPolicy, budget int, members ...*Member) *Arbiter {
	if budget <= 0 {
		for _, m := range members {
			budget += m.DP.Threads()
		}
	}
	for _, m := range members {
		if m.MinCores < 1 {
			m.MinCores = 1
		}
		if m.MaxCores <= 0 {
			m.MaxCores = budget
		}
	}
	return &Arbiter{eng: eng, pol: pol, members: members, budget: budget,
		streaks: make([]int, len(members))}
}

// Policy returns the arbiter's active policy.
func (a *Arbiter) Policy() ArbiterPolicy { return a.pol }

// Budget returns the machine's core budget.
func (a *Arbiter) Budget() int { return a.budget }

// Allocated sums the members' current core allocations.
func (a *Arbiter) Allocated() int {
	n := 0
	for _, m := range a.members {
		n += m.DP.Threads()
	}
	return n
}

// Start begins the periodic decision loop.
func (a *Arbiter) Start() {
	a.eng.After(a.pol.Interval, a.tick)
}

// Stop halts the loop.
func (a *Arbiter) Stop() { a.stopped = true }

func (a *Arbiter) tick() {
	if a.stopped {
		return
	}
	defer func() { a.eng.After(a.pol.Interval, a.tick) }()
	a.decide()
}

// sloRatio normalizes a member's p99 against its SLO (0 for best-effort
// members): > 1 is a violation, and the lowest ratio marks the most
// headroom.
func sloRatio(m *Member, p99 time.Duration) float64 {
	if m.SLO <= 0 {
		return 0
	}
	return float64(p99) / float64(m.SLO)
}

// decide runs one arbitration step: sample every member (the probes are
// reset-on-read, so sampling happens every decision regardless of
// cooldown — windows stay aligned with the cadence), then move at most
// one core toward the worst eligible violator.
func (a *Arbiter) decide() {
	a.Decisions++
	row := make([]MemberSample, len(a.members))
	for i, m := range a.members {
		s := MemberSample{Name: m.Name, Cores: m.DP.Threads(), P99: m.P99()}
		if m.Util != nil {
			s.Util = m.Util()
		}
		s.Violating = m.SLO > 0 && s.P99 > m.SLO
		if s.Violating {
			a.streaks[i]++
		} else {
			a.streaks[i] = 0
		}
		s.Streak = a.streaks[i]
		row[i] = s
	}
	a.History = append(a.History, row)
	if a.cooldown > 0 {
		a.cooldown--
		return
	}

	// The receiver: the persistently violating member with the worst
	// p99/SLO ratio and room to grow. Strict > keeps the first member
	// on ties (deterministic member order).
	recv := -1
	worst := 0.0
	for i, m := range a.members {
		if row[i].Streak < a.pol.ViolateAfter || m.DP.Threads() >= m.MaxCores {
			continue
		}
		if r := sloRatio(m, row[i].P99); r > worst {
			worst = r
			recv = i
		}
	}
	if recv < 0 {
		return
	}
	to := a.members[recv]

	// Unallocated budget is granted before anyone is shrunk.
	if a.Allocated() < a.budget {
		if err := to.DP.AddElasticThread(); err == nil {
			a.Moves = append(a.Moves, Move{At: a.eng.Now(), Decision: a.Decisions, To: to.Name})
			a.cooldown = a.pol.Residency
		}
		return
	}

	// The donor: most headroom (lowest p99/SLO ratio, then lowest
	// utilization, then member order), currently healthy by a margin
	// (p99 ≤ DonorHeadroom × SLO), not saturated, above its floor.
	donor := -1
	best := 0.0
	bestUtil := 0.0
	for i, m := range a.members {
		if i == recv || m.DP.Threads() <= m.MinCores || row[i].Violating {
			continue
		}
		r := sloRatio(m, row[i].P99)
		if m.SLO > 0 && r > a.pol.DonorHeadroom {
			continue
		}
		if row[i].Util > donorUtil {
			continue
		}
		if donor < 0 || r < best || (r == best && row[i].Util < bestUtil) {
			donor, best, bestUtil = i, r, row[i].Util
		}
	}
	if donor < 0 {
		return
	}
	from := a.members[donor]
	if err := from.DP.RemoveElasticThread(); err != nil {
		return
	}
	if err := to.DP.AddElasticThread(); err != nil {
		// Receiver at its hardware queue limit: undo the shrink so the
		// budget stays fully allocated.
		_ = from.DP.AddElasticThread()
		return
	}
	a.Moves = append(a.Moves, Move{At: a.eng.Now(), Decision: a.Decisions, From: from.Name, To: to.Name})
	a.cooldown = a.pol.Residency
}
