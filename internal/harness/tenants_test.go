package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ix/internal/cp"
	"ix/internal/faults"
)

// tenantSums adds up every tag's isolation-accounting charges (tag 0 is
// untagged infrastructure — the shared client hosts).
func tenantSums(cl *Cluster) (frames, chunks int, egress uint64) {
	for tag := 0; tag <= cl.MaxTenantTag(); tag++ {
		frames += cl.TenantFramesInUse(tag)
		chunks += cl.TenantTxChunksInUse(tag)
		egress += cl.TenantEgressBytes(tag)
	}
	return
}

// checkConservation asserts the per-tenant charges tile the cluster
// totals exactly — every frame, TX chunk and egress byte is charged to
// exactly one tenant tag.
func checkConservation(t *testing.T, cl *Cluster, when string) {
	t.Helper()
	frames, chunks, egress := tenantSums(cl)
	if got := cl.FramesInUse(); frames != got {
		t.Errorf("%s: per-tenant frame charges sum to %d, cluster total %d", when, frames, got)
	}
	if got := cl.TxChunksInUse(); chunks != got {
		t.Errorf("%s: per-tenant TX chunk charges sum to %d, cluster total %d", when, chunks, got)
	}
	if got := cl.EgressBytes(); egress != got {
		t.Errorf("%s: per-tenant egress-byte charges sum to %d, cluster total %d", when, egress, got)
	}
}

// flashCrowdRun is one full execution of the flash-crowd scenario: two
// memcached tenants share a 40-core machine, tenant A takes a 4×
// offered-load spike, and the arbiter must shift cores from B to A.
type flashCrowdRun struct {
	history    [][]cp.MemberSample
	moves      []cp.Move
	usage      []TenantUsage
	transcript string
}

func flashCrowd(t *testing.T) flashCrowdRun {
	t.Helper()
	const (
		fcWarm  = 4 * time.Millisecond
		fcSpike = 12 * time.Millisecond
		fcAfter = 6 * time.Millisecond
		fcBase  = 250_000.0
	)
	tc := BuildTenants(TenantsSetup{
		HostCores:   40,
		ClientHosts: 4,
		ClientCores: 4,
		Seed:        42,
		Tenants: []TenantSpec{
			{
				Name: "A", App: TenantMemc,
				SLO:   SLOSpec{P99: SLA, Envelope: 8 * SLA},
				Cores: 2, MinCores: 2, MaxCores: 16,
				ClientThreads: 12, Conns: 16,
				Schedule: func(now int64) float64 {
					if now >= int64(fcWarm) && now < int64(fcWarm+fcSpike) {
						return 4 * fcBase
					}
					return fcBase
				},
			},
			{
				Name: "B", App: TenantMemc,
				SLO:   SLOSpec{P99: 2 * time.Millisecond, Envelope: 2 * time.Millisecond},
				Cores: 38, MinCores: 8, MaxCores: 38,
				ClientThreads: 4, Conns: 8,
				RPS: 100_000,
			},
		},
	})

	// Base period, then mid-spike and end-of-run conservation checks:
	// the charges must tile the totals while traffic is in full flight,
	// not just after a drain.
	tc.Run(fcWarm)
	checkConservation(t, tc.Cl, "pre-spike")
	tc.Run(fcSpike / 2)
	checkConservation(t, tc.Cl, "mid-spike")
	tc.Run(fcSpike/2 + fcAfter)
	checkConservation(t, tc.Cl, "post-spike")

	usage := tc.Usage()
	tc.Stop()
	tc.Run(8 * time.Millisecond) // drain in-flight traffic

	if l := tc.Cl.Leaks(); l != (Leaks{}) {
		t.Errorf("leaked after drain: %+v", l)
	}
	for tag := 0; tag <= tc.Cl.MaxTenantTag(); tag++ {
		if n := tc.Cl.TenantFramesInUse(tag); n != 0 {
			t.Errorf("tag %d holds %d frames after drain", tag, n)
		}
	}

	var b strings.Builder
	for d, row := range tc.Arb.History {
		fmt.Fprintf(&b, "decision %d:", d)
		for _, s := range row {
			fmt.Fprintf(&b, " %s cores=%d p99=%d util=%.6f v=%v streak=%d;",
				s.Name, s.Cores, s.P99.Nanoseconds(), s.Util, s.Violating, s.Streak)
		}
		b.WriteString("\n")
	}
	for _, mv := range tc.Arb.Moves {
		fmt.Fprintf(&b, "move at=%v decision=%d %q->%q\n", mv.At, mv.Decision, mv.From, mv.To)
	}
	for _, u := range usage {
		fmt.Fprintf(&b, "usage %s tag=%d cores=%d egressB=%d drops=%d busy=%d resp=%d\n",
			u.Name, u.Tag, u.Cores, u.EgressBytes, u.EgressDrops,
			u.Busy.Nanoseconds(), u.Responses)
	}
	return flashCrowdRun{
		history:    tc.Arb.History,
		moves:      tc.Arb.Moves,
		usage:      usage,
		transcript: b.String(),
	}
}

// TestClaimFlashCrowdReallocation is the PR's acceptance claim: on a
// shared 40-core machine a 4× offered-load flash crowd on tenant A
// makes the arbiter move cores from tenant B, restoring A's 500 µs p99
// SLO within a bounded number of decisions, while B stays inside its
// stated 2 ms envelope, nothing leaks, and the whole run is
// byte-identical across executions at a fixed seed.
func TestClaimFlashCrowdReallocation(t *testing.T) {
	run := flashCrowd(t)

	// A must genuinely violate once the spike lands.
	firstViolation := -1
	for d, row := range run.history {
		if row[0].Violating {
			firstViolation = d
			break
		}
	}
	if firstViolation < 0 {
		t.Fatal("the 4x spike never drove tenant A over its SLO — the scenario is not exercising arbitration")
	}

	// Recovery bound: within 15 decisions of the first violation, A is
	// back under SLO with more cores than its starting 2.
	const bound = 15
	recovered := -1
	for d := firstViolation; d < len(run.history) && d <= firstViolation+bound; d++ {
		s := run.history[d][0]
		if !s.Violating && s.P99 > 0 && s.Cores > 2 {
			recovered = d
			break
		}
	}
	if recovered < 0 {
		t.Errorf("tenant A did not recover within %d decisions of its first violation (decision %d)",
			bound, firstViolation)
	} else {
		t.Logf("first violation at decision %d, recovered at decision %d with %d cores",
			firstViolation, recovered, run.history[recovered][0].Cores)
	}

	// The recovery must come from real core transfers B -> A.
	toA := 0
	for _, mv := range run.moves {
		if mv.To == "A" {
			toA++
			if mv.From != "B" {
				t.Errorf("move to A at decision %d came from %q, want B (no free pool exists)", mv.Decision, mv.From)
			}
		}
	}
	if toA < 2 {
		t.Errorf("only %d core moves to tenant A, want at least 2", toA)
	}

	// B's p99 stays inside its stated envelope at every decision.
	for d, row := range run.history {
		if p := row[1].P99; p > 2*time.Millisecond {
			t.Errorf("decision %d: tenant B p99 %v exceeds its 2ms envelope", d, p)
		}
	}

	// Core budget conservation at every decision.
	for d, row := range run.history {
		total := 0
		for _, s := range row {
			total += s.Cores
		}
		if total != 40 {
			t.Errorf("decision %d: %d cores allocated, budget is 40", d, total)
		}
	}

	// Fixed seed, byte-identical repeat.
	again := flashCrowd(t)
	if run.transcript != again.transcript {
		t.Errorf("fixed-seed runs differ:\n--- first ---\n%s--- second ---\n%s",
			run.transcript, again.transcript)
	}
}

// TestTenantIsolationAccounting is the conservation property test: for
// several seeds, a multi-tenant cluster under a randomized fault
// schedule (loss, duplication, corruption, jitter) and shallow egress
// buffers keeps its per-tenant frame/TX-chunk/egress charges summing
// exactly to the cluster totals at every checkpoint, and drains to zero
// everywhere after heal.
func TestTenantIsolationAccounting(t *testing.T) {
	for _, seed := range []int64{3, 17, 101} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tc := BuildTenants(TenantsSetup{
				HostCores:   8,
				ClientHosts: 2,
				ClientCores: 2,
				Seed:        seed,
				Tenants: []TenantSpec{
					{
						Name: "echo", App: TenantEcho,
						SLO:   SLOSpec{P99: 2 * time.Millisecond},
						Cores: 3, MinCores: 1,
						ClientThreads: 2, Conns: 8, Outstanding: 4,
					},
					{
						Name: "bulk", App: TenantIncast,
						SLO:   SLOSpec{P99: 10 * time.Millisecond},
						Cores: 5, MinCores: 1,
						ClientThreads: 2, Conns: 8, Outstanding: 8,
						MsgSize: 8192,
					},
				},
			})
			// Shallow egress buffers toward the clients force switch
			// tail drops, exercising the per-tenant drop charging.
			for _, h := range tc.ClientFleet {
				tc.Cl.LimitEgress(h, 4<<10)
			}
			sites := make([]*faults.Site, 0, len(tc.ClientFleet)+len(tc.ServerHosts))
			for _, h := range tc.ClientFleet {
				sites = append(sites, tc.Cl.Faults(h))
			}
			for _, h := range tc.ServerHosts {
				sites = append(sites, tc.Cl.Faults(h))
			}

			rng := rand.New(rand.NewSource(seed))
			for phase := 0; phase < 6; phase++ {
				for _, site := range sites {
					site.Apply(chaosMenu(rng))
				}
				tc.Run(time.Millisecond)
				checkConservation(t, tc.Cl, fmt.Sprintf("phase %d", phase))
			}

			for _, site := range sites {
				site.Heal()
			}
			tc.Stop()
			tc.Run(10 * time.Millisecond)
			checkConservation(t, tc.Cl, "after drain")
			if l := tc.Cl.Leaks(); l != (Leaks{}) {
				t.Errorf("leaked: %+v", l)
			}

			// The scenario must actually have produced tagged egress
			// drops, or the drop-charging path went untested.
			var tagged uint64
			for tag := 1; tag <= tc.Cl.MaxTenantTag(); tag++ {
				tagged += tc.Cl.TenantEgressDrops(tag)
			}
			if tagged == 0 {
				t.Error("no tenant-tagged egress drops: the drop-charging path went unexercised")
			}
		})
	}
}

// TestTenantsExperiment smoke-runs the registered `tenants` experiment
// end to end at a small scale.
func TestTenantsExperiment(t *testing.T) {
	r := Tenants(Scale{Warmup: 2 * time.Millisecond, Window: 8 * time.Millisecond})
	if len(r.Series) == 0 {
		t.Fatal("tenants experiment produced no series")
	}
	if len(r.Tables) == 0 || len(r.Tables[0].Rows) != 3 {
		t.Fatalf("tenants experiment table malformed: %+v", r.Tables)
	}
}
