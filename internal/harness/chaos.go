package harness

import (
	"fmt"
	"math/rand"
	"time"

	"ix/internal/apps/echo"
	"ix/internal/faults"
	"ix/internal/netstack"
)

// ChaosSetup configures the randomized fault-schedule experiment: an
// echo fleet in Verify mode (patterned payloads, byte-exact response
// checking) runs while every client link cycles through a seeded random
// sequence of impairment phases — burst loss, duplication, corruption,
// jitter reordering, link flaps — and the server link takes a brief
// outage. The run then heals, drains, and checks end-to-end invariants:
// no byte of any response ever differed from its request, whole-transfer
// checksums match, and every frame pool drains to zero (nothing leaked,
// nothing double-freed).
//
// The testbed is fixed: a 2-core IX server and four 2-core Linux clients
// of 4 connections per thread, each running 32 rounds.
type ChaosSetup struct {
	// Phases is the number of random impairment phases (default 8).
	Phases int
	Seed   int64
}

// ChaosResult is the outcome plus every invariant input.
type ChaosResult struct {
	Msgs uint64
	// PhaseRates is achieved msgs/s per impairment phase.
	PhaseRates []float64
	// VerifyErrors/SumMismatches are the end-to-end integrity
	// invariants (must be zero).
	VerifyErrors  uint64
	SumMismatches uint64
	// Injected aggregates what the fault layer actually did.
	Injected faults.Stats
	// Protocol counters summed over every stack.
	Retransmits  uint64
	BadChecksums uint64
	OutOfOrder   uint64
	ConnFailures uint64
	// Leaked is the cluster's pool imbalance after heal+drain (must be
	// zero: the conservation invariants).
	Leaked Leaks
}

// chaosMenu returns the impairment for one phase draw (clean with
// probability ~1/3, otherwise one of the fault regimes).
func chaosMenu(rng *rand.Rand) faults.Config {
	switch rng.Intn(9) {
	case 0, 1, 2:
		return faults.Config{} // clean phase
	case 3:
		return faults.Config{LossP: 0.02}
	case 4:
		return faults.Config{GE: faults.GELoss(0.05)}
	case 5:
		return faults.Config{DupP: 0.02}
	case 6:
		return faults.Config{CorruptP: 0.01}
	case 7:
		return faults.Config{JitterP: 0.3, Jitter: 30 * time.Microsecond}
	default:
		return faults.Config{LossP: 0.01, DupP: 0.01, CorruptP: 0.005,
			JitterP: 0.1, Jitter: 20 * time.Microsecond}
	}
}

// RunChaos executes one randomized fault schedule.
func RunChaos(s ChaosSetup) ChaosResult {
	if s.Phases <= 0 {
		s.Phases = 8
	}
	// Two segments per message, so jitter phases genuinely reorder
	// in-flight data and exercise reassembly end to end.
	const port, msgSize = 9000, 2048
	const phaseLen, warmup = time.Millisecond, 2 * time.Millisecond
	cl := NewCluster(s.Seed)
	m := echo.NewMetrics()
	server := cl.AddHost("server", HostSpec{
		Arch:    ArchIX,
		Cores:   2,
		Factory: echo.VerifyingServerFactory(port, msgSize),
	})
	var clients []Host
	for i := 0; i < 4; i++ {
		clients = append(clients, cl.AddHost("client", HostSpec{
			Arch:  ArchLinux,
			Cores: 2,
			Factory: echo.ClientFactory(echo.ClientConfig{
				ServerIP:   server.IP(),
				Port:       port,
				MsgSize:    msgSize,
				Rounds:     32,
				Conns:      4,
				Metrics:    m,
				Verify:     true,
				VerifySeed: uint64(s.Seed) + uint64(i)*1313,
			}),
		}))
	}

	// Build the randomized-but-reproducible schedule: one independent
	// phase sequence per client link, plus one brief mid-run outage of
	// the server link (every flow survives it via retransmission).
	rng := rand.New(rand.NewSource(s.Seed*0x9e3779b9 + 17))
	var sites []*faults.Site
	for _, h := range clients {
		site := cl.Faults(h)
		sites = append(sites, site)
		var plan faults.Plan
		for p := 0; p < s.Phases; p++ {
			at := warmup + time.Duration(p)*phaseLen
			cfg := chaosMenu(rng)
			plan.Steps = append(plan.Steps, faults.Step{At: at, Cfg: cfg})
			if rng.Intn(8) == 0 {
				// Short link flap inside the phase.
				plan.Steps = append(plan.Steps,
					faults.Step{At: at + phaseLen/4, Cfg: faults.Config{Down: true}},
					faults.Step{At: at + phaseLen/2, Cfg: cfg})
			}
		}
		plan.Steps = append(plan.Steps,
			faults.Step{At: warmup + time.Duration(s.Phases)*phaseLen, Cfg: faults.Config{}})
		site.Schedule(plan)
	}
	srvSite := cl.Faults(server)
	sites = append(sites, srvSite)
	mid := warmup + time.Duration(s.Phases/2)*phaseLen
	srvSite.Schedule(faults.Plan{Steps: []faults.Step{
		{At: mid, Cfg: faults.Config{Down: true}},
		{At: mid + 150*time.Microsecond, Cfg: faults.Config{}},
	}})

	cl.Start()
	cl.Run(warmup)
	res := ChaosResult{}
	prev := m.Msgs.Total()
	for p := 0; p < s.Phases; p++ {
		cl.Run(phaseLen)
		now := m.Msgs.Total()
		res.PhaseRates = append(res.PhaseRates, float64(now-prev)/phaseLen.Seconds())
		prev = now
	}
	// Heal everything and drain: in-flight rounds finish, retransmission
	// queues empty, clients stop reconnecting.
	for _, site := range sites {
		site.Heal()
	}
	m.Running = false
	cl.Run(30 * time.Millisecond)

	res.Msgs = m.Msgs.Total()
	res.VerifyErrors = m.VerifyErrors.Total()
	res.SumMismatches = m.SumMismatches.Total()
	res.ConnFailures = m.Failures.Total()
	for _, site := range sites {
		st := site.Stats()
		res.Injected.Delivered += st.Delivered
		res.Injected.Dropped += st.Dropped
		res.Injected.Duplicated += st.Duplicated
		res.Injected.Corrupted += st.Corrupted
		res.Injected.Delayed += st.Delayed
	}
	cl.eachStack(func(ns *netstack.Stack) {
		t := ns.TCP()
		res.Retransmits += t.Retransmits
		res.BadChecksums += t.BadChecksums
		res.OutOfOrder += t.OutOfOrderSegs
	})
	res.Leaked = cl.Leaks()
	return res
}

// Chaos is the registry experiment: the echo fleet's throughput per
// impairment phase, with the invariant outcomes tabled.
func Chaos(sc Scale) *Result {
	r := &Result{
		Name:   "echo fleet under randomized fault schedule",
		Figure: "chaos (robustness: §3 NIC-edge drops, impaired links)",
		XLabel: "phase",
		YLabel: "msgs/s",
	}
	phases := 8
	if sc.Window >= 20*time.Millisecond {
		phases = 16
	}
	res := RunChaos(ChaosSetup{Phases: phases, Seed: 23})
	for i, rate := range res.PhaseRates {
		r.AddPoint("msgs/s", float64(i), rate)
	}
	r.Tables = append(r.Tables, Table{
		Title:   "fault injection and invariant outcomes",
		Columns: []string{"quantity", "value"},
		Rows: [][]string{
			{"msgs completed", fmt.Sprint(res.Msgs)},
			{"frames dropped/dup/corrupt/delayed", fmt.Sprintf("%d/%d/%d/%d",
				res.Injected.Dropped, res.Injected.Duplicated,
				res.Injected.Corrupted, res.Injected.Delayed)},
			{"tcp retransmits", fmt.Sprint(res.Retransmits)},
			{"tcp bad checksums", fmt.Sprint(res.BadChecksums)},
			{"tcp out-of-order segs", fmt.Sprint(res.OutOfOrder)},
			{"conn failures (reconnected)", fmt.Sprint(res.ConnFailures)},
			{"verify errors", fmt.Sprint(res.VerifyErrors)},
			{"checksum mismatches", fmt.Sprint(res.SumMismatches)},
			{"pool leaks (frames/mbufs/chunks)", fmt.Sprintf("%d/%d/%d",
				res.Leaked.Frames, res.Leaked.Mbufs, res.Leaked.TxChunks)},
		},
	})
	if res.VerifyErrors != 0 || res.SumMismatches != 0 || res.Leaked != (Leaks{}) {
		r.Notes = append(r.Notes, "INVARIANT VIOLATION — see table")
	} else {
		r.Notes = append(r.Notes,
			"invariants held: byte-exact echo streams, zero pool leaks under loss/dup/corrupt/reorder/flap")
	}
	return r
}
