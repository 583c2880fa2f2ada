package harness

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ix/internal/apps/echo"
	"ix/internal/faults"
	"ix/internal/netstack"
)

// TestClaimIncastRTOFloor: the paper's justification for fine-grained
// timeouts (§4.2, "timeouts as low as 16 µs") — under synchronized
// N-to-1 incast with a shallow switch egress buffer, whole window tails
// are dropped and lost flows stall for MinRTO; lowering the floor from
// the 200 µs default to 16 µs recovers goodput. Fault/drop bookkeeping
// must conserve frames throughout.
func TestClaimIncastRTOFloor(t *testing.T) {
	run := func(rto time.Duration) IncastResult {
		return RunIncast(IncastSetup{
			Senders: 16,
			MinRTO:  rto,
			Rounds:  6,
			Seed:    31,
		})
	}
	slow := run(200 * time.Microsecond)
	fast := run(16 * time.Microsecond)
	t.Logf("200µs: %.2f Gbps (mean %v, p99 %v, drops %d, rexmit %d)",
		slow.GoodputBps/1e9, slow.MeanCompletion, slow.P99Completion, slow.EgressDrops, slow.Retransmits)
	t.Logf(" 16µs: %.2f Gbps (mean %v, p99 %v, drops %d, rexmit %d)",
		fast.GoodputBps/1e9, fast.MeanCompletion, fast.P99Completion, fast.EgressDrops, fast.Retransmits)
	for _, r := range []struct {
		name string
		res  IncastResult
	}{{"200µs", slow}, {"16µs", fast}} {
		if r.res.RoundsDone == 0 {
			t.Fatalf("%s: no rounds completed", r.name)
		}
		if r.res.EgressDrops == 0 {
			t.Fatalf("%s: no egress tail drops — not an incast regime", r.name)
		}
		if r.res.Retransmits == 0 {
			t.Fatalf("%s: no retransmissions despite drops", r.name)
		}
		if r.res.Leaked != (Leaks{}) {
			t.Fatalf("%s: leaked %+v", r.name, r.res.Leaked)
		}
	}
	if fast.GoodputBps < 1.3*slow.GoodputBps {
		t.Fatalf("16µs MinRTO goodput %.2f Gbps does not beat 200µs %.2f Gbps by ≥1.3x",
			fast.GoodputBps/1e9, slow.GoodputBps/1e9)
	}
}

// TestIncastDeterminism: a fixed-seed incast run — fault-free wire but
// heavy egress tail-dropping — reproduces byte-identical results.
func TestIncastDeterminism(t *testing.T) {
	run := func() IncastResult {
		return RunIncast(IncastSetup{
			Senders: 12, MinRTO: 50 * time.Microsecond, Rounds: 4, Seed: 77,
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fixed seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestClaimChaosInvariants: an echo fleet survives a randomized fault
// schedule — burst loss, duplication, corruption, reordering jitter,
// link flaps and a server-link outage — with every end-to-end invariant
// intact: not one response byte differed from its request, every
// whole-transfer checksum matched, and every frame pool drained (drops
// and duplicates neither leak nor double-free; a double free panics in
// fabric, so surviving the run is itself an assertion).
func TestClaimChaosInvariants(t *testing.T) {
	res := RunChaos(ChaosSetup{Seed: 23})
	t.Logf("msgs=%d injected=%+v rexmit=%d badck=%d fails=%d",
		res.Msgs, res.Injected, res.Retransmits, res.BadChecksums, res.ConnFailures)
	if res.Msgs < 1000 {
		t.Fatalf("only %d msgs under chaos — fleet did not make progress", res.Msgs)
	}
	// The schedule must actually have exercised the fault space.
	if res.Injected.Dropped == 0 || res.Injected.Duplicated == 0 ||
		res.Injected.Corrupted == 0 || res.Injected.Delayed == 0 {
		t.Fatalf("fault schedule too tame: %+v", res.Injected)
	}
	if res.Retransmits == 0 {
		t.Fatal("loss injected but nothing retransmitted")
	}
	if res.BadChecksums == 0 {
		t.Fatal("corruption injected but no checksum rejected it")
	}
	if res.OutOfOrder == 0 {
		t.Fatal("jitter injected but no segment arrived out of order")
	}
	if res.VerifyErrors != 0 {
		t.Fatalf("%d response bytes differed from their requests", res.VerifyErrors)
	}
	if res.SumMismatches != 0 {
		t.Fatalf("%d whole-transfer checksum mismatches", res.SumMismatches)
	}
	if res.Leaked != (Leaks{}) {
		t.Fatalf("leaked across drops/duplicates/delays: %+v", res.Leaked)
	}
	for i, rate := range res.PhaseRates {
		if rate <= 0 {
			t.Errorf("phase %d: fleet fully stalled", i)
		}
	}
}

// TestChaosDeterminism: the randomized fault schedule is a pure
// function of the seed — two runs are byte-identical, and a different
// seed genuinely changes the schedule.
func TestChaosDeterminism(t *testing.T) {
	run := func(seed int64) ChaosResult {
		return RunChaos(ChaosSetup{Phases: 4, Seed: seed})
	}
	a, b := run(23), run(23)
	if a.Msgs != b.Msgs || a.Injected != b.Injected || a.Retransmits != b.Retransmits ||
		a.BadChecksums != b.BadChecksums || a.OutOfOrder != b.OutOfOrder {
		t.Fatalf("fixed seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	for i := range a.PhaseRates {
		if a.PhaseRates[i] != b.PhaseRates[i] {
			t.Fatalf("phase %d rate diverged: %v vs %v", i, a.PhaseRates[i], b.PhaseRates[i])
		}
	}
	c := run(24)
	if a.Msgs == c.Msgs && a.Injected == c.Injected {
		t.Fatal("different seeds produced an identical run")
	}
}

// TestClaimStreamIntegrityUnderBurstLoss is the byte-stream integrity
// property for all three stacks: multi-segment echo RPCs cross a link
// under 5% Gilbert–Elliott burst loss plus reordering jitter; TCP must
// mask every drop, duplicate and inversion so the application sees each
// byte exactly once, in order — whole-transfer checksums match and the
// positional verifier finds nothing. Fixed seeds per stack.
func TestClaimStreamIntegrityUnderBurstLoss(t *testing.T) {
	for _, arch := range []Arch{ArchIX, ArchLinux, ArchMTCP} {
		t.Run(arch.String(), func(t *testing.T) {
			cl := NewCluster(91)
			m := echo.NewMetrics()
			const port, msg = 9100, 4096 // 3 segments per message
			server := cl.AddHost("server", HostSpec{
				Arch: arch, Cores: 1,
				Factory: echo.VerifyingServerFactory(port, msg),
			})
			client := cl.AddHost("client", HostSpec{
				Arch: arch, Cores: 1,
				Factory: echo.ClientFactory(echo.ClientConfig{
					ServerIP: server.IP(), Port: port, MsgSize: msg,
					Rounds: 64, Conns: 4, Metrics: m,
					Verify: true, VerifySeed: 7,
				}),
			})
			site := cl.Faults(client)
			cl.Start()
			cl.Run(time.Millisecond) // establish clean
			site.Apply(faults.Config{
				GE:      faults.GELoss(0.05),
				JitterP: 0.2, Jitter: 40 * time.Microsecond,
			})
			cl.Run(15 * time.Millisecond)
			site.Heal()
			m.Running = false
			cl.Run(20 * time.Millisecond)

			stats := site.Stats()
			var rexmit, ooo uint64
			cl.eachStack(func(ns *netstack.Stack) {
				rexmit += ns.TCP().Retransmits
				ooo += ns.TCP().OutOfOrderSegs
			})
			t.Logf("%s: msgs=%d dropped=%d delayed=%d rexmit=%d ooo=%d",
				arch, m.Msgs.Total(), stats.Dropped, stats.Delayed, rexmit, ooo)
			if m.Msgs.Total() < 50 {
				t.Fatalf("only %d msgs crossed the impaired link", m.Msgs.Total())
			}
			if stats.Dropped == 0 {
				t.Fatal("GE loss dropped nothing — property not exercised")
			}
			if rexmit == 0 {
				t.Fatal("no retransmissions — loss path not exercised")
			}
			if ooo == 0 {
				t.Fatal("no out-of-order segments — reordering not exercised")
			}
			if got := m.VerifyErrors.Total(); got != 0 {
				t.Fatalf("%d bytes delivered wrong (duplicate/reorder/corruption leaked to app)", got)
			}
			if got := m.SumMismatches.Total(); got != 0 {
				t.Fatalf("%d whole-transfer checksum mismatches", got)
			}
			if l := cl.Leaks(); l != (Leaks{}) {
				t.Fatalf("leaked %+v", l)
			}
		})
	}
}

// TestPartitionHealsCleanly: a mid-run switch-port partition of a
// client host stalls its flows; healing restores service and the
// drained cluster conserves every frame.
func TestPartitionHealsCleanly(t *testing.T) {
	cl := NewCluster(55)
	m := echo.NewMetrics()
	const port = 9200
	server := cl.AddHost("server", HostSpec{
		Arch: ArchIX, Cores: 1,
		Factory: echo.VerifyingServerFactory(port, 64),
	})
	client := cl.AddHost("client", HostSpec{
		Arch: ArchLinux, Cores: 1,
		Factory: echo.ClientFactory(echo.ClientConfig{
			ServerIP: server.IP(), Port: port, MsgSize: 64,
			Rounds: 32, Conns: 4, Metrics: m, Verify: true,
		}),
	})
	site := cl.Faults(client)
	cl.Start()
	cl.Run(2 * time.Millisecond)
	before := m.Msgs.Total()
	if before == 0 {
		t.Fatal("no traffic before partition")
	}
	site.Apply(faults.Config{Down: true})
	cl.Run(2 * time.Millisecond)
	during := m.Msgs.Total() - before
	site.Heal()
	cl.Run(5 * time.Millisecond)
	after := m.Msgs.Total() - before - during
	t.Logf("msgs: before=%d during=%d after=%d dropped=%d", before, during, after, site.Stats().Dropped)
	if during > before/10 {
		t.Fatalf("partitioned host still completed %d msgs", during)
	}
	if after < before/4 {
		t.Fatalf("service did not recover after heal: %d msgs", after)
	}
	m.Running = false
	cl.Run(20 * time.Millisecond)
	if got := m.VerifyErrors.Total() + m.SumMismatches.Total(); got != 0 {
		t.Fatalf("%d integrity violations across the partition", got)
	}
	if l := cl.Leaks(); l != (Leaks{}) {
		t.Fatalf("leaked %+v", l)
	}
}

// TestMigrationUnderFaults: elastic threads come and go on an IX server
// while every link runs a seeded chaos schedule and the switch egress
// toward the clients is shallow enough to tail-drop. Flow groups migrate
// with retransmission queues, reassembly queues and timers in flight;
// after heal and drain every echoed byte must have been exact and every
// frame, mbuf and TX chunk back in its pool. Threads are added and
// revoked directly, and each resize must succeed, so the property does
// not depend on controller policy.
func TestMigrationUnderFaults(t *testing.T) {
	for _, seed := range []int64{3, 17, 101} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl := NewCluster(seed)
			m := echo.NewMetrics()
			const port, msg = 9300, 4096 // 3 segments per message
			cl.AddHost("server", HostSpec{
				Arch: ArchIX, Cores: 1, MaxThreads: 3, Ports: 4,
				Factory: echo.VerifyingServerFactory(port, msg),
			})
			srv := cl.IXServer(0)
			var clients []Host
			for i := 0; i < 2; i++ {
				clients = append(clients, cl.AddHost("client", HostSpec{
					Arch: ArchLinux, Cores: 2,
					Factory: echo.ClientFactory(echo.ClientConfig{
						ServerIP: srv.IP(), Port: port, MsgSize: msg,
						Rounds: 32, Conns: 4, Metrics: m,
						Verify: true, VerifySeed: uint64(seed) + uint64(i)*1313,
					}),
				}))
			}
			sites := []*faults.Site{cl.Faults(srv)}
			for _, h := range clients {
				cl.LimitEgress(h, 4<<10)
				sites = append(sites, cl.Faults(h))
			}
			cl.Start()

			resize := []func() error{
				srv.AddElasticThread, srv.AddElasticThread, srv.RemoveElasticThread,
				srv.AddElasticThread, srv.RemoveElasticThread, srv.RemoveElasticThread,
			}
			rng := rand.New(rand.NewSource(seed))
			for _, step := range resize {
				for _, site := range sites {
					site.Apply(chaosMenu(rng))
				}
				cl.Run(time.Millisecond)
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			cl.Run(time.Millisecond)

			for _, site := range sites {
				site.Heal()
			}
			m.Running = false
			cl.Run(30 * time.Millisecond)

			var drops uint64
			for _, h := range clients {
				drops += cl.EgressDrops(h)
			}
			t.Logf("msgs=%d migrated=%d egress drops=%d", m.Msgs.Total(), srv.FlowsMigrated, drops)
			if srv.FlowsMigrated == 0 {
				t.Error("no flow group migrated")
			}
			if drops == 0 {
				t.Error("no egress tail drops: the shallow buffers went unexercised")
			}
			if got := m.VerifyErrors.Total() + m.SumMismatches.Total(); got != 0 {
				t.Errorf("%d integrity violations across migration", got)
			}
			if l := cl.Leaks(); l != (Leaks{}) {
				t.Errorf("leaked after drain: %+v", l)
			}
		})
	}
}
