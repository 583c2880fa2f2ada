package harness

import (
	"fmt"
	"time"

	"ix/internal/app"
	"ix/internal/apps/echo"
	"ix/internal/apps/memcached"
	"ix/internal/core"
	"ix/internal/cp"
	"ix/internal/mutilate"
	"ix/internal/stats"
)

// The multi-tenant runtime. The paper's control plane (§4.1) allocates
// cores across multiple dataplanes sharing one machine — each tenant is
// its own IX instance with its own application. This file builds that
// shape on the simulated testbed: one dataplane per tenant drawing from
// a shared core budget, a shared Linux client fleet whose threads are
// divided among the tenants' load generators (so switch egress toward
// the clients genuinely carries multi-tenant traffic), per-tenant frame
// pool tags for isolation accounting, and a cp.Arbiter moving cores
// between the dataplanes by SLO.

// TenantApp selects a tenant's application mix.
type TenantApp int

const (
	// TenantEcho is the closed-loop 64B-RPC echo rotation (§5.2/§5.4).
	TenantEcho TenantApp = iota
	// TenantMemc is the memcached clone under mutilate open-loop load
	// (§5.5) — the only app kind with an offered-load schedule, so
	// flash crowds live here.
	TenantMemc
	// TenantIncast is a bulk-transfer echo variant (large messages,
	// deep rotation): the fan-in-heavy neighbour whose storms the
	// isolation accounting must charge to the right budget.
	TenantIncast
)

func (a TenantApp) String() string {
	switch a {
	case TenantEcho:
		return "echo"
	case TenantMemc:
		return "memc"
	case TenantIncast:
		return "incast"
	}
	return "?"
}

// SLOSpec is a tenant's latency contract.
type SLOSpec struct {
	// P99 is the tail-latency target the arbiter enforces (zero =
	// best-effort: the tenant can only donate cores).
	P99 time.Duration
	// Envelope is the worst p99 the tenant's owner accepts while the
	// arbiter serves other tenants' violations — what the claim tests
	// assert for the background tenant. Not used by the arbiter.
	Envelope time.Duration
}

// TenantSpec describes one tenant: its app, its SLO and its resources.
type TenantSpec struct {
	Name string
	App  TenantApp
	SLO  SLOSpec
	// Cores is the tenant's starting allocation; MinCores/MaxCores
	// bound what arbitration may do (MaxCores also provisions the
	// dataplane's NIC queue pairs).
	Cores, MinCores, MaxCores int
	// ClientThreads is how many threads of the shared client fleet
	// drive this tenant's load.
	ClientThreads int
	// Conns is connections per client thread.
	Conns int
	// Outstanding is the echo/incast rotation depth per thread.
	Outstanding int
	// MsgSize is the echo/incast message size.
	MsgSize int
	// RPS is the memc tenant's aggregate offered load; Schedule, when
	// non-nil, overrides it with aggregate offered load as a function
	// of virtual time (flash crowds, diurnal ramps).
	RPS      float64
	Schedule func(now int64) float64
	// Workload is the memc key/value mix (default ETC).
	Workload mutilate.Workload
}

// Tenant is one running tenant: its dataplane, its meters and its
// telemetry probes.
type Tenant struct {
	Spec TenantSpec
	// Tag is the isolation-accounting tag (1-based; 0 stays reserved
	// for untagged infrastructure traffic).
	Tag int
	DP  *core.Dataplane
	// Echo/Memc: exactly one is non-nil, matching Spec.App.
	Echo *echo.Metrics
	Memc *mutilate.Metrics
	// Port is the tenant's service port.
	Port uint16

	tap *stats.Histogram
}

// P99Window returns the tenant's 99th-percentile latency over the
// window since the previous call and resets the window (the arbiter's
// reset-on-read probe). A window with no completed responses reads as
// zero — indistinguishable from fast, so pick arbiter cadences long
// enough that a live tenant always completes responses per window.
func (t *Tenant) P99Window() time.Duration {
	p := t.tap.Quantile(0.99)
	t.tap.Reset()
	return p
}

// UtilWindow returns mean core utilization across the tenant's threads
// since the previous call and resets the per-thread windows.
func (t *Tenant) UtilWindow() float64 {
	n := t.DP.Threads()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += t.DP.Thread(i).CoreUtilization()
	}
	for i := 0; i < n; i++ {
		t.DP.Thread(i).ResetUtilWindow()
	}
	return sum / float64(n)
}

// Cores returns the tenant's current allocation.
func (t *Tenant) Cores() int { return t.DP.Threads() }

// Responses returns total completed requests (all-time).
func (t *Tenant) Responses() uint64 {
	if t.Memc != nil {
		return t.Memc.Responses.Total()
	}
	return t.Echo.Msgs.Total()
}

// stopLoad winds the tenant's clients down.
func (t *Tenant) stopLoad() {
	if t.Memc != nil {
		t.Memc.Running = false
	}
	if t.Echo != nil {
		t.Echo.Running = false
	}
}

// TenantsSetup configures a multi-tenant testbed: one single-port IX
// dataplane per tenant, arbitrated under cp.DefaultArbiterPolicy.
type TenantsSetup struct {
	// HostCores is the shared server machine's core budget (the
	// arbiter's budget); tenant starting allocations must fit in it.
	HostCores int
	// ClientHosts/ClientCores size the shared Linux client fleet; the
	// tenants' ClientThreads must fit in ClientHosts×ClientCores.
	ClientHosts, ClientCores int
	Seed                     int64

	Tenants []TenantSpec
}

// TenantUsage is one tenant's isolation-accounting charge sheet.
type TenantUsage struct {
	Name     string
	Tag      int
	Cores    int
	Frames   int
	TxChunks int
	// EgressBytes/EgressDrops are switch-egress traffic charged to the
	// tenant's tag across every port of the shared fabric.
	EgressBytes uint64
	EgressDrops uint64
	// Busy is the dataplane's kernel+user busy time since the last
	// ResetStats, revoked cores included.
	Busy      time.Duration
	Responses uint64
}

// TenantCluster is a running multi-tenant testbed.
type TenantCluster struct {
	Setup   TenantsSetup
	Cl      *Cluster
	Tenants []*Tenant
	Arb     *cp.Arbiter
	// ServerHosts[i] is tenant i's dataplane host; ClientFleet holds
	// the shared Linux client hosts. Both are fault-injection and
	// egress-limit sites.
	ServerHosts []Host
	ClientFleet []Host
}

// clientSlot maps one shared-fleet thread to a tenant-local ordinal.
type clientSlot struct {
	tenant  int // index into specs; -1 = idle spare
	ordinal int
}

// idleHandler occupies spare client threads.
type idleHandler struct{}

func (idleHandler) OnAccept(app.Conn)          {}
func (idleHandler) OnConnected(app.Conn, bool) {}
func (idleHandler) OnRecv(app.Conn, []byte)    {}
func (idleHandler) OnSent(app.Conn, int)       {}
func (idleHandler) OnEOF(app.Conn)             {}
func (idleHandler) OnClosed(app.Conn)          {}

// BuildTenants assembles and starts the multi-tenant testbed: one IX
// dataplane per tenant on the shared-core server machine, the shared
// client fleet with threads interleaved across tenants, and the
// arbiter (started, deciding on its cadence as the caller runs the
// cluster).
func BuildTenants(s TenantsSetup) *TenantCluster {
	if s.HostCores <= 0 {
		s.HostCores = 40
	}
	if s.ClientHosts <= 0 {
		s.ClientHosts = 4
	}
	if s.ClientCores <= 0 {
		s.ClientCores = 4
	}
	if s.Seed == 0 {
		s.Seed = 61
	}
	if len(s.Tenants) == 0 {
		panic("harness: BuildTenants needs at least one tenant")
	}
	alloc := 0
	for i := range s.Tenants {
		sp := &s.Tenants[i]
		if sp.Cores <= 0 {
			sp.Cores = 1
		}
		if sp.MinCores <= 0 {
			sp.MinCores = 1
		}
		if sp.MaxCores <= 0 {
			sp.MaxCores = s.HostCores
		}
		if sp.ClientThreads <= 0 {
			sp.ClientThreads = 1
		}
		if sp.Conns <= 0 {
			sp.Conns = 8
		}
		if sp.MsgSize <= 0 {
			if sp.App == TenantIncast {
				sp.MsgSize = 4096
			} else {
				sp.MsgSize = 64
			}
		}
		if sp.Outstanding <= 0 {
			sp.Outstanding = 4
		}
		if sp.Workload.Keys == 0 {
			sp.Workload = mutilate.ETC
		}
		alloc += sp.Cores
	}
	if alloc > s.HostCores {
		panic(fmt.Sprintf("harness: tenant allocations (%d cores) exceed the host budget (%d)", alloc, s.HostCores))
	}
	fleetThreads := s.ClientHosts * s.ClientCores
	want := 0
	for i := range s.Tenants {
		want += s.Tenants[i].ClientThreads
	}
	if want > fleetThreads {
		panic(fmt.Sprintf("harness: tenant client threads (%d) exceed the shared fleet (%d)", want, fleetThreads))
	}

	cl := NewCluster(s.Seed)
	tc := &TenantCluster{Setup: s, Cl: cl}

	// Server machine: one dataplane per tenant, tagged 1-based so tag 0
	// stays the untagged-infrastructure slot.
	for i := range s.Tenants {
		sp := s.Tenants[i]
		tag := i + 1
		t := &Tenant{Spec: sp, Tag: tag, tap: stats.NewHistogram()}
		var factory app.Factory
		switch sp.App {
		case TenantMemc:
			t.Port = uint16(11211)
			store := memcached.NewStore(256 << 20)
			mutilate.Preload(store, sp.Workload)
			factory = memcached.ServerFactory(store, t.Port)
			m := mutilate.NewMetrics()
			m.Tap = t.tap
			t.Memc = m
		default:
			t.Port = uint16(9000)
			factory = echo.ServerFactory(t.Port, sp.MsgSize)
			m := echo.NewMetrics()
			m.Tap = t.tap
			t.Echo = m
		}
		h := cl.AddHost(sp.Name, HostSpec{
			Arch:       ArchIX,
			Cores:      sp.Cores,
			MaxThreads: sp.MaxCores,
			Factory:    factory,
			Tenant:     tag,
		})
		t.DP = cl.IXServer(i)
		tc.Tenants = append(tc.Tenants, t)
		tc.ServerHosts = append(tc.ServerHosts, h)
	}

	// Shared client fleet: interleave tenant threads round-robin across
	// the hosts so each shared host (and the switch egress toward it)
	// carries a mix of tenants.
	slots := make([]clientSlot, fleetThreads)
	for i := range slots {
		slots[i].tenant = -1
	}
	remaining := make([]int, len(s.Tenants))
	ordinal := make([]int, len(s.Tenants))
	for i := range s.Tenants {
		remaining[i] = s.Tenants[i].ClientThreads
	}
	idx := 0
	for idx < fleetThreads {
		progress := false
		for ti := range s.Tenants {
			if remaining[ti] > 0 && idx < fleetThreads {
				slots[idx] = clientSlot{tenant: ti, ordinal: ordinal[ti]}
				ordinal[ti]++
				remaining[ti]--
				idx++
				progress = true
			}
		}
		if !progress {
			break
		}
	}

	// Per-tenant client sub-factories, invoked with tenant-local thread
	// ordinals so seeds and load shares split by tenant, not by host.
	subs := make([]app.Factory, len(s.Tenants))
	for i := range s.Tenants {
		sp := s.Tenants[i]
		t := tc.Tenants[i]
		srvIP := t.DP.IP()
		switch sp.App {
		case TenantMemc:
			share := float64(sp.ClientThreads)
			var sched func(int64) float64
			if sp.Schedule != nil {
				outer := sp.Schedule
				sched = func(now int64) float64 { return outer(now) / share }
			}
			subs[i] = mutilate.LoadFactory(mutilate.LoadConfig{
				ServerIP:  srvIP,
				Port:      t.Port,
				Workload:  sp.Workload,
				Conns:     sp.Conns,
				TargetRPS: sp.RPS / share,
				Schedule:  sched,
				Pipeline:  4,
				Metrics:   t.Memc,
				Seed:      uint64(s.Seed) + uint64(t.Tag)*977,
			})
		default:
			subs[i] = echo.ClientFactory(echo.ClientConfig{
				ServerIP:    srvIP,
				Port:        t.Port,
				MsgSize:     sp.MsgSize,
				Conns:       sp.Conns,
				Outstanding: sp.Outstanding,
				Metrics:     t.Echo,
			})
		}
	}

	for h := 0; h < s.ClientHosts; h++ {
		base := h * s.ClientCores
		ch := cl.AddHost("clients", HostSpec{
			Arch:  ArchLinux,
			Cores: s.ClientCores,
			Factory: func(env app.Env, local, threads int) app.Handler {
				slot := slots[base+local]
				if slot.tenant < 0 {
					return idleHandler{}
				}
				sp := s.Tenants[slot.tenant]
				return subs[slot.tenant](env, slot.ordinal, sp.ClientThreads)
			},
		})
		tc.ClientFleet = append(tc.ClientFleet, ch)
	}
	cl.Start()

	members := make([]*cp.Member, len(tc.Tenants))
	for i, t := range tc.Tenants {
		members[i] = &cp.Member{
			Name:     t.Spec.Name,
			DP:       t.DP,
			SLO:      t.Spec.SLO.P99,
			MinCores: t.Spec.MinCores,
			MaxCores: t.Spec.MaxCores,
			P99:      t.P99Window,
			Util:     t.UtilWindow,
		}
	}
	tc.Arb = cp.NewArbiter(cl.Eng, cp.DefaultArbiterPolicy(), s.HostCores, members...)
	tc.Arb.Start()
	return tc
}

// Run advances the testbed; the arbiter ticks on its own engine timer.
func (tc *TenantCluster) Run(d time.Duration) { tc.Cl.Run(d) }

// Stop halts arbitration and winds every tenant's load down; run the
// cluster a little longer afterwards to drain in-flight traffic before
// asserting conservation.
func (tc *TenantCluster) Stop() {
	tc.Arb.Stop()
	for _, t := range tc.Tenants {
		t.stopLoad()
	}
}

// Usage reads every tenant's isolation-accounting charges.
func (tc *TenantCluster) Usage() []TenantUsage {
	out := make([]TenantUsage, len(tc.Tenants))
	for i, t := range tc.Tenants {
		out[i] = TenantUsage{
			Name:        t.Spec.Name,
			Tag:         t.Tag,
			Cores:       t.Cores(),
			Frames:      tc.Cl.TenantFramesInUse(t.Tag),
			TxChunks:    tc.Cl.TenantTxChunksInUse(t.Tag),
			EgressBytes: tc.Cl.TenantEgressBytes(t.Tag),
			EgressDrops: tc.Cl.TenantEgressDrops(t.Tag),
			Busy:        t.DP.BusyTotal(),
			Responses:   t.Responses(),
		}
	}
	return out
}

// Tenants regenerates the multi-tenant arbitration experiment: three
// tenants — a memcached frontend that takes a 4× flash crowd, a bulk
// incast-style neighbour and a small echo tenant — share one server
// machine; the arbiter grows the violating frontend through the spike
// and the series track per-tenant cores and p99 per decision.
func Tenants(sc Scale) *Result {
	warmup := sc.Warmup
	window := sc.Window / 2
	spikeAt := warmup + window
	spikeEnd := spikeAt + window
	base := 200_000.0
	spec := TenantsSetup{
		HostCores:   12,
		ClientHosts: 4,
		ClientCores: 4,
		Seed:        61,
		Tenants: []TenantSpec{
			{
				Name: "frontend", App: TenantMemc,
				SLO:   SLOSpec{P99: SLA, Envelope: 2 * SLA},
				Cores: 2, MinCores: 2, MaxCores: 8,
				ClientThreads: 8, Conns: 16,
				Schedule: func(now int64) float64 {
					if now >= int64(spikeAt) && now < int64(spikeEnd) {
						return 4 * base
					}
					return base
				},
			},
			{
				Name: "batch", App: TenantIncast,
				SLO:   SLOSpec{P99: 10 * time.Millisecond},
				Cores: 7, MinCores: 2,
				ClientThreads: 4, Conns: 4, Outstanding: 2,
			},
			{
				Name: "echo", App: TenantEcho,
				SLO:   SLOSpec{P99: 2 * time.Millisecond},
				Cores: 3, MinCores: 1,
				ClientThreads: 4, Conns: 8, Outstanding: 2,
			},
		},
	}
	tc := BuildTenants(spec)
	tc.Run(warmup + 2*window + window) // base, spike, recovery
	tc.Stop()
	tc.Run(5 * time.Millisecond) // drain

	r := &Result{
		Name:   "multi-tenant SLO arbitration under a flash crowd",
		Figure: "§4.1 multi-dataplane core allocation (runtime policy)",
		XLabel: "decision",
		YLabel: "cores / µs",
	}
	for d, row := range tc.Arb.History {
		x := float64(d + 1)
		for _, smp := range row {
			r.AddPoint(smp.Name+" cores", x, float64(smp.Cores))
			r.AddPoint(smp.Name+" p99 µs", x, float64(smp.P99.Microseconds()))
		}
	}
	tbl := Table{
		Title:   "isolation accounting (per-tenant charges)",
		Columns: []string{"tenant", "cores", "egress MB", "egress drops", "busy ms", "responses", "frames leaked", "chunks leaked"},
	}
	for _, u := range tc.Usage() {
		tbl.Rows = append(tbl.Rows, []string{
			u.Name,
			fmt.Sprintf("%d", u.Cores),
			fmt.Sprintf("%.2f", float64(u.EgressBytes)/1e6),
			fmt.Sprintf("%d", u.EgressDrops),
			fmt.Sprintf("%.2f", u.Busy.Seconds()*1e3),
			fmt.Sprintf("%d", u.Responses),
			fmt.Sprintf("%d", u.Frames),
			fmt.Sprintf("%d", u.TxChunks),
		})
	}
	r.Tables = append(r.Tables, tbl)
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d arbiter decisions, %d core moves; budget %d cores fully conserved",
			tc.Arb.Decisions, len(tc.Arb.Moves), tc.Arb.Budget()),
		"frontend cores should rise through the spike and its p99 return under the 500µs SLO")
	return r
}
