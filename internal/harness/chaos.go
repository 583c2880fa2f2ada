package harness

import (
	"fmt"
	"math/rand"
	"time"

	"ix/internal/apps/echo"
	"ix/internal/faults"
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
type ChaosSetup struct {
	ServerArch  Arch // zero value = ArchIX
	ServerCores int
	ClientHosts int
	ClientCores int
	// ConnsPerThread / Rounds / MsgSize follow echo semantics.
	ConnsPerThread int
	Rounds         int
	MsgSize        int
	// Phases random impairment phases of PhaseLen each.
	Phases   int
	PhaseLen time.Duration
	Warmup   time.Duration
	Seed     int64
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
	// FramesLeaked is the cluster frame-pool imbalance after heal+drain
	// (must be zero: the frame-conservation invariant).
	FramesLeaked int
	// MbufsLeaked is the receive-mbuf imbalance at the same point (must
	// be zero too: an mbuf held past its reader pins its frame).
	MbufsLeaked int
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
	if s.Seed == 0 {
		s.Seed = 23
	}
	if s.ServerCores <= 0 {
		s.ServerCores = 2
	}
	if s.ClientHosts <= 0 {
		s.ClientHosts = 4
	}
	if s.ClientCores <= 0 {
		s.ClientCores = 2
	}
	if s.ConnsPerThread <= 0 {
		s.ConnsPerThread = 4
	}
	if s.Rounds <= 0 {
		s.Rounds = 32
	}
	if s.MsgSize <= 0 {
		// Two segments per message, so jitter phases genuinely reorder
		// in-flight data and exercise reassembly end to end.
		s.MsgSize = 2048
	}
	if s.Phases <= 0 {
		s.Phases = 8
	}
	if s.PhaseLen <= 0 {
		s.PhaseLen = time.Millisecond
	}
	if s.Warmup <= 0 {
		s.Warmup = 2 * time.Millisecond
	}
	cl := NewCluster(s.Seed)
	m := echo.NewMetrics()
	const port = 9000
	server := cl.AddHost("server", HostSpec{
		Arch:    s.ServerArch,
		Cores:   s.ServerCores,
		Factory: echo.VerifyingServerFactory(port, s.MsgSize),
	})
	var clients []Host
	for i := 0; i < s.ClientHosts; i++ {
		clients = append(clients, cl.AddHost("client", HostSpec{
			Arch:  ArchLinux,
			Cores: s.ClientCores,
			Factory: echo.ClientFactory(echo.ClientConfig{
				ServerIP:   server.IP(),
				Port:       port,
				MsgSize:    s.MsgSize,
				Rounds:     s.Rounds,
				Conns:      s.ConnsPerThread,
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
			at := s.Warmup + time.Duration(p)*s.PhaseLen
			cfg := chaosMenu(rng)
			plan.Steps = append(plan.Steps, faults.Step{At: at, Cfg: cfg})
			if rng.Intn(8) == 0 {
				// Short link flap inside the phase.
				plan.Steps = append(plan.Steps,
					faults.Step{At: at + s.PhaseLen/4, Cfg: faults.Config{Down: true}},
					faults.Step{At: at + s.PhaseLen/2, Cfg: cfg})
			}
		}
		plan.Steps = append(plan.Steps,
			faults.Step{At: s.Warmup + time.Duration(s.Phases)*s.PhaseLen, Cfg: faults.Config{}})
		site.Schedule(plan)
	}
	srvSite := cl.Faults(server)
	sites = append(sites, srvSite)
	mid := s.Warmup + time.Duration(s.Phases/2)*s.PhaseLen
	srvSite.Schedule(faults.Plan{Steps: []faults.Step{
		{At: mid, Cfg: faults.Config{Down: true}},
		{At: mid + 150*time.Microsecond, Cfg: faults.Config{}},
	}})

	cl.Start()
	cl.Run(s.Warmup)
	res := ChaosResult{}
	prev := m.Msgs.Total()
	for p := 0; p < s.Phases; p++ {
		cl.Run(s.PhaseLen)
		now := m.Msgs.Total()
		res.PhaseRates = append(res.PhaseRates, float64(now-prev)/s.PhaseLen.Seconds())
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
	addTCP := func(rexmit, bad, ooo uint64) {
		res.Retransmits += rexmit
		res.BadChecksums += bad
		res.OutOfOrder += ooo
	}
	for _, dp := range cl.ixs {
		for i := 0; i < dp.Threads(); i++ {
			t := dp.Thread(i).Stack().TCP()
			addTCP(t.Retransmits, t.BadChecksums, t.OutOfOrderSegs)
		}
	}
	for _, lh := range cl.linuxes {
		t := lh.Stack().TCP()
		addTCP(t.Retransmits, t.BadChecksums, t.OutOfOrderSegs)
	}
	for _, mh := range cl.mtcps {
		for i := 0; i < mh.Cores(); i++ {
			t := mh.Stack(i).TCP()
			addTCP(t.Retransmits, t.BadChecksums, t.OutOfOrderSegs)
		}
	}
	res.FramesLeaked = cl.FramesInUse()
	res.MbufsLeaked = cl.MbufsInUse()
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
			{"frames leaked", fmt.Sprint(res.FramesLeaked)},
		},
	})
	if res.VerifyErrors != 0 || res.SumMismatches != 0 || res.FramesLeaked != 0 || res.MbufsLeaked != 0 {
		r.Notes = append(r.Notes, "INVARIANT VIOLATION — see table")
	} else {
		r.Notes = append(r.Notes,
			"invariants held: byte-exact echo streams, zero frame leaks under loss/dup/corrupt/reorder/flap")
	}
	return r
}
