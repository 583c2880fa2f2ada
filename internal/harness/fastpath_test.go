package harness

import (
	"fmt"
	"testing"
	"time"
)

// Tests for the establishment fast path: quiet-ramp mode and the
// persistent-cluster sweep engine (EchoBench).

// quietSetup is a small fixed quiet-ramp configuration: 16 client
// threads ramping 8k connections with traffic deferred until each
// thread's population is complete.
func quietSetup() EchoSetup {
	threads := 4 * 4
	return EchoSetup{
		ServerArch: ArchIX, ServerCores: 4, ServerPorts: 4,
		ClientArch: ArchLinux, ClientHosts: 4, ClientCores: 4,
		ConnsPerThread: 500, Outstanding: 3, MsgSize: 64,
		QuietRamp: true, RampBatch: 16, RampGap: Fig4QuietGap(ArchIX, threads),
		Warmup: 8 * time.Millisecond, Window: 4 * time.Millisecond,
		Seed: 77,
	}
}

// TestQuietRampEstablishes: quiet-ramp mode brings the full population
// up within the warmup and still moves traffic in the window.
func TestQuietRampEstablishes(t *testing.T) {
	s := quietSetup()
	res := RunEcho(s)
	total := s.ClientHosts * s.ClientCores * s.ConnsPerThread
	t.Logf("established=%d/%d msgs/s=%.3gM", res.ServerConns, total, res.MsgsPerSec/1e6)
	if res.ServerConns < total*95/100 {
		t.Fatalf("quiet ramp established %d, want ≥95%% of %d", res.ServerConns, total)
	}
	if res.MsgsPerSec <= 0 {
		t.Fatal("no traffic after quiet ramp")
	}
}

// TestQuietRampDeterminism: a fixed-seed quiet-ramp run is byte-identical
// across repetitions.
func TestQuietRampDeterminism(t *testing.T) {
	run := func() string {
		return fmt.Sprintf("%+v", RunEcho(quietSetup()))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("quiet-ramp run not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// benchSetup is the persistent-cluster test configuration.
func benchSetup(arch Arch) EchoSetup {
	threads := 4 * 4
	return EchoSetup{
		ServerArch: arch, ServerCores: 4, ServerPorts: 4,
		ClientArch: ArchLinux, ClientHosts: 4, ClientCores: 4,
		MsgSize: 64, RampBatch: 16, RampGap: Fig4QuietGap(arch, threads),
		Seed: 99,
	}
}

// TestPersistentSweepDeterminism: a fixed-seed persistent sweep (grow,
// grow, grow) is byte-identical across repetitions — the per-point
// seed schedule and the fixed polling cadences leave nothing
// history-dependent outside the simulation state itself.
func TestPersistentSweepDeterminism(t *testing.T) {
	run := func() string {
		b := NewEchoBench(benchSetup(ArchIX))
		out := ""
		for _, total := range []int{800, 1600, 4800} {
			out += fmt.Sprintf("%d: %+v\n", total, b.MeasurePoint(total, 3, 3*time.Millisecond))
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("persistent sweep not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestPersistentColdEquivalence: measuring a point on a warmed persistent
// cluster (after a smaller point ran on it) gives the same figures as
// measuring it on a cold cluster. Establishment counts must match
// exactly; rates agree within a small tolerance — the warmed cluster's
// TCP microstate (RTT estimators, port/ISS sequences) legitimately
// differs from a cold ramp's, which perturbs event interleaving without
// changing the steady state being measured.
func TestPersistentColdEquivalence(t *testing.T) {
	const window = 3 * time.Millisecond
	warm := NewEchoBench(benchSetup(ArchIX))
	warm.MeasurePoint(1600, 3, window)
	wres := warm.MeasurePoint(4800, 3, window)

	cold := NewEchoBench(benchSetup(ArchIX))
	cres := cold.MeasurePoint(4800, 3, window)

	t.Logf("warm: conns=%d msgs/s=%.0f; cold: conns=%d msgs/s=%.0f",
		wres.ServerConns, wres.MsgsPerSec, cres.ServerConns, cres.MsgsPerSec)
	if wres.ServerConns != cres.ServerConns {
		t.Errorf("established counts differ: warm %d vs cold %d", wres.ServerConns, cres.ServerConns)
	}
	if cres.MsgsPerSec <= 0 {
		t.Fatal("cold run moved no traffic")
	}
	if diff := wres.MsgsPerSec/cres.MsgsPerSec - 1; diff > 0.025 || diff < -0.025 {
		t.Errorf("per-point throughput differs by %.1f%%: warm %.0f vs cold %.0f",
			diff*100, wres.MsgsPerSec, cres.MsgsPerSec)
	}
}

// TestClaimFig4ScalesTo250k: the establishment fast path carries the
// Fig. 4 sweep to the paper's full 250k connections on the IX-40 and
// Linux-40 server configurations: ≥95% of the population is established
// and the server still moves traffic at the top point.
func TestClaimFig4ScalesTo250k(t *testing.T) {
	if testing.Short() {
		t.Skip("250k-connection establishment ramp")
	}
	const total = 250_000
	for _, arch := range []Arch{ArchIX, ArchLinux} {
		t.Run(arch.String(), func(t *testing.T) {
			threads := fig4FleetHosts * fig4FleetCores
			b := NewEchoBench(EchoSetup{
				ServerArch: arch, ServerCores: 8, ServerPorts: 4,
				ClientArch: ArchLinux, ClientHosts: fig4FleetHosts, ClientCores: fig4FleetCores,
				MsgSize: 64, RampBatch: 16, RampGap: Fig4QuietGap(arch, threads),
			})
			res := b.MeasurePoint(total, 3, 4*time.Millisecond)
			t.Logf("%s: established=%d msgs/s=%.3gM", arch, res.ServerConns, res.MsgsPerSec/1e6)
			if res.ServerConns < total*95/100 {
				t.Fatalf("established %d connections, want ≥95%% of %d", res.ServerConns, total)
			}
			if res.MsgsPerSec <= 0 {
				t.Fatal("no traffic at 250k connections")
			}
		})
	}
}

// TestClaimFig4ScalesTo1M: the compact per-connection state carries the
// Fig. 4 axis 4× past the paper's 250k testbed limit. The claim is
// threefold: the full 1M population establishes (100%, not ≥95% — the
// establishment fast path must not shed load at this scale), the
// per-connection memory stays under the DESIGN.md budget ceiling at the
// top point, and winding the population down leaks no pooled frames or
// TX arena chunks.
func TestClaimFig4ScalesTo1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-connection establishment ramp")
	}
	const total = 1_000_000
	// Ceilings are the measurement at this point plus 5% (IX 154.8,
	// Linux 128.9 bytes/conn with 64 B pointer-free PCBs in per-stack
	// arena blocks and one-word demux slots — 194.8 / 157.0 with one
	// 80 B heap object per PCB and a slot of pointer plus tag; 202.7 /
	// 154.9 once timers and reassembly join the
	// retransmission queue in the one borrowed flight — 204.8 / 157.0
	// since the demux table keeps a tag byte per slot; 234.7 / 186.9 with
	// one owner id and one RTO/TIME_WAIT timer slot in the PCB, 250.7 /
	// 202.9 before that, 290.7 / 242.9 before the PCB, the libix
	// descriptor and the socket kept in-flight scalars in their borrowed
	// side objects, and 424.0 / 338.1 while idle connections still held
	// I/O state).
	ceiling := map[Arch]float64{ArchIX: 162.5, ArchLinux: 135.3}
	for _, arch := range []Arch{ArchIX, ArchLinux} {
		t.Run(arch.String(), func(t *testing.T) {
			threads := fig4FleetHosts * fig4FleetCores
			b := NewEchoBench(EchoSetup{
				ServerArch: arch, ServerCores: 8, ServerPorts: 4,
				ClientArch: ArchLinux, ClientHosts: fig4FleetHosts, ClientCores: fig4FleetCores,
				MsgSize: 64, RampBatch: 16, RampGap: Fig4QuietGap(arch, threads),
				ExpectedConns: total,
			})
			res := b.MeasurePoint(total, 3, 4*time.Millisecond)
			t.Logf("%s: established=%d bytes/conn=%.1f msgs/s=%.3gM",
				arch, res.ServerConns, res.ServerBytesPerConn, res.MsgsPerSec/1e6)
			if res.ServerConns < total {
				t.Fatalf("established %d connections, want 100%% of %d", res.ServerConns, total)
			}
			if res.MsgsPerSec <= 0 {
				t.Fatal("no traffic at 1M connections")
			}
			if res.ServerBytesPerConn > ceiling[arch] {
				t.Fatalf("bytes/conn=%.1f exceeds the %.1f budget ceiling",
					res.ServerBytesPerConn, ceiling[arch])
			}
			// Quiesce and check pool conservation at scale: an idle
			// million-connection population must pin no pooled frames and
			// no arena chunks.
			b.fleet.Pause()
			b.runUntil(drainBudget, drainStep, func() bool { return b.fleet.InFlight() == 0 })
			b.cl.Run(5 * time.Millisecond)
			if l := b.cl.Leaks(); l != (Leaks{}) {
				t.Errorf("leaked at 1M connections: %+v", l)
			}
		})
	}
}

// TestRetargetWithInFlightRPCs: a grow retarget issued without a prior
// drain (the exported Fleet API permits it) must keep rotation-slot
// accounting consistent while the new connections open under live
// traffic.
func TestRetargetWithInFlightRPCs(t *testing.T) {
	b := NewEchoBench(benchSetup(ArchIX))
	b.MeasurePoint(1600, 3, 2*time.Millisecond)
	// Undrained, unpaused grow: RPCs are mid-flight while the delta
	// ramps in.
	b.fleet.Retarget(200, 3, 12345)
	b.cl.Run(5 * time.Millisecond)
	if n := b.fleet.InFlight(); n < 0 || n > 3*b.Threads() {
		t.Fatalf("in-flight slots corrupted after undrained grow: %d (threads=%d)", n, b.Threads())
	}
	// The testbed must still measure sanely afterwards.
	res := b.MeasurePoint(3200, 3, 2*time.Millisecond)
	if res.MsgsPerSec <= 0 {
		t.Fatal("no traffic after undrained retarget")
	}
	if n := b.fleet.InFlight(); n < 0 {
		t.Fatalf("negative in-flight count: %d", n)
	}
}

// TestRetargetBelowOpenPanics: the fleet only grows, so a retarget below
// the population already open is a caller error, not a teardown.
func TestRetargetBelowOpenPanics(t *testing.T) {
	b := NewEchoBench(EchoSetup{
		ServerArch: ArchIX, ServerCores: 2,
		ClientArch: ArchLinux, ClientHosts: 1, ClientCores: 2,
		MsgSize: 64, Seed: 7,
	})
	if res := b.MeasurePoint(80, 2, time.Millisecond); res.ServerConns != 80 {
		t.Fatalf("established %d server conns, want 80", res.ServerConns)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("retarget below the open population did not panic")
		}
	}()
	b.fleet.Retarget(1, 2, 8)
}
