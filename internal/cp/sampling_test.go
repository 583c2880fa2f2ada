package cp_test

import (
	"testing"
	"time"

	"ix/internal/apps/echo"
	"ix/internal/cp"
	"ix/internal/harness"
)

// idleController builds a one-host idle cluster (no clients, no traffic)
// with a telemetry-only controller: thresholds set so the policy never
// grows or shrinks, isolating the sampling cadence under test.
func idleController(seed int64, pol cp.Policy) (*harness.Cluster, *cp.Controller) {
	cl := harness.NewCluster(seed)
	cl.AddHost("server", harness.HostSpec{
		Arch: harness.ArchIX, Cores: 1, MaxThreads: 2,
		Factory: echo.ServerFactory(9000, 64),
	})
	cl.Start()
	ctl := cp.New(cl.Eng, cl.IXServer(0), pol)
	ctl.Start()
	return cl, ctl
}

// TestMaxIntervalExactBoundary: the idle doubling chain must land on
// MaxInterval exactly — both when the bound is a power-of-two multiple
// of Interval (the chain lands on it) and when it is not (the overshoot
// clamps to exactly the bound, not to the next doubling).
func TestMaxIntervalExactBoundary(t *testing.T) {
	base := cp.DefaultPolicy()

	// Power-of-two bound: 500µs → 1ms → 2ms → 4ms, no clamp needed.
	pol := base
	pol.MaxInterval = 8 * pol.Interval
	cl, ctl := idleController(31, pol)
	cl.Run(100 * time.Millisecond)
	if got := ctl.Interval(); got != pol.MaxInterval {
		t.Fatalf("interval = %v, want exactly MaxInterval %v", got, pol.MaxInterval)
	}
	for i, s := range ctl.History {
		if s.Window > pol.MaxInterval {
			t.Fatalf("sample %d window %v exceeds MaxInterval %v", i, s.Window, pol.MaxInterval)
		}
	}

	// Non-power-of-two bound: 500µs → 1ms → 2ms clamps to 1.5ms; the
	// cadence must sit exactly at the bound, never beyond it.
	pol = base
	pol.MaxInterval = 3 * pol.Interval / 2
	cl, ctl = idleController(32, pol)
	cl.Run(100 * time.Millisecond)
	if got := ctl.Interval(); got != pol.MaxInterval {
		t.Fatalf("clamped interval = %v, want exactly MaxInterval %v", got, pol.MaxInterval)
	}

	// MaxInterval == Interval disables adaptation entirely.
	pol = base
	pol.MaxInterval = pol.Interval
	cl, ctl = idleController(33, pol)
	cl.Run(20 * time.Millisecond)
	if got := ctl.Interval(); got != pol.Interval {
		t.Fatalf("interval = %v with MaxInterval==Interval, want fixed %v", got, pol.Interval)
	}
	_ = cl
}

// TestSnapBackAfterIdleChain: after a long idle chain has stretched the
// cadence to MaxInterval, the first sample that carries load covers the
// stretched window (its rates integrate over what was actually waited)
// and the very next sample is back on the base cadence.
func TestSnapBackAfterIdleChain(t *testing.T) {
	cl := harness.NewCluster(34)
	m := echo.NewMetrics()
	fleet := &echo.Fleet{}
	cl.AddHost("server", harness.HostSpec{
		Arch: harness.ArchIX, Cores: 1, MaxThreads: 2,
		Factory: echo.ServerFactory(9000, 64),
	})
	srv := cl.IXServer(0)
	cl.AddHost("client", harness.HostSpec{
		Arch: harness.ArchLinux, Cores: 2,
		Factory: echo.ClientFactory(echo.ClientConfig{
			ServerIP: srv.IP(), Port: 9000, MsgSize: 64,
			Conns: 4, Outstanding: 2, Fleet: fleet, Metrics: m,
		}),
	})
	cl.Start()
	pol := cp.DefaultPolicy()
	ctl := cp.New(cl.Eng, srv, pol)
	ctl.Start()

	// Load, then a long idle phase: the chain must reach MaxInterval.
	cl.Run(5 * time.Millisecond)
	fleet.Pause()
	cl.Run(50 * time.Millisecond)
	if got := ctl.Interval(); got != pol.MaxInterval {
		t.Fatalf("idle chain stalled at %v, want MaxInterval %v", got, pol.MaxInterval)
	}
	mark := len(ctl.History)

	// Resume and find the first loaded sample after the idle chain.
	fleet.Resume()
	cl.Run(4 * pol.MaxInterval)
	first := -1
	for i := mark; i < len(ctl.History); i++ {
		if ctl.History[i].Pkts > 0 {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("no loaded sample after resume")
	}
	s := ctl.History[first]
	// The loaded sample still covers the stretched window it closed.
	if s.Window != pol.MaxInterval {
		t.Fatalf("first loaded sample window = %v, want the stretched %v", s.Window, pol.MaxInterval)
	}
	if want := float64(s.Pkts) / s.Window.Seconds(); s.PPS != want {
		t.Fatalf("PPS %v not integrated over the stretched window (want %v)", s.PPS, want)
	}
	// Snap-back: the next sample arrives one base interval later.
	if first+1 >= len(ctl.History) {
		t.Fatal("no sample after the snap-back")
	}
	if w := ctl.History[first+1].Window; w != pol.Interval {
		t.Fatalf("post-snap-back window = %v, want base %v", w, pol.Interval)
	}
	if got := ctl.Interval(); got != pol.Interval {
		t.Fatalf("cadence after snap-back = %v, want %v", got, pol.Interval)
	}
}

// TestSampleWindowOnMidWindowRevoke: a core revoked between ticks (by an
// external actor, not the controller's own policy) must not corrupt the
// next sample: the window still covers the full interval, the packet
// count does not underflow even though the revoked thread took its
// cumulative RxPackets with it, and the sample history tiles virtual
// time exactly.
func TestSampleWindowOnMidWindowRevoke(t *testing.T) {
	cl := harness.NewCluster(35)
	m := echo.NewMetrics()
	cl.AddHost("server", harness.HostSpec{
		Arch: harness.ArchIX, Cores: 2, MaxThreads: 2,
		Factory: echo.ServerFactory(9000, 64),
	})
	srv := cl.IXServer(0)
	cl.AddHost("client", harness.HostSpec{
		Arch: harness.ArchLinux, Cores: 2,
		Factory: echo.ClientFactory(echo.ClientConfig{
			ServerIP: srv.IP(), Port: 9000, MsgSize: 64,
			Conns: 8, Outstanding: 2, Metrics: m,
		}),
	})
	cl.Start()
	// Telemetry-only policy: thresholds the traffic can never cross, a
	// fixed cadence, so the only thread-count change is ours.
	pol := cp.DefaultPolicy()
	pol.AddQueueDepth = 1 << 30
	pol.AddUtil = 0
	pol.RemoveUtil = 0
	pol.MaxInterval = 0
	ctl := cp.New(cl.Eng, srv, pol)
	ctl.Start()

	cl.Run(4 * pol.Interval)
	before := len(ctl.History)
	// Mid-window revocation: half an interval past the last tick.
	cl.Run(pol.Interval / 2)
	if err := srv.RemoveElasticThread(); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	cl.Run(10 * pol.Interval)
	m.Running = false

	if len(ctl.History) <= before {
		t.Fatal("no samples after the revoke")
	}
	s := ctl.History[before]
	if s.Threads != 1 {
		t.Fatalf("sample spanning the revoke reports %d threads, want 1", s.Threads)
	}
	if s.Window != pol.Interval {
		t.Fatalf("revoke did not preserve the window: %v, want %v", s.Window, pol.Interval)
	}
	// The revoked thread's cumulative RxPackets vanished from the sum;
	// the clamp must floor the delta at zero rather than wrapping.
	for i, smp := range ctl.History {
		if smp.Pkts > 1<<40 {
			t.Fatalf("sample %d packet count underflowed: %d", i, smp.Pkts)
		}
	}
	// Window integration: samples tile the run — the sum of windows
	// equals the span from just before the first sample to the last.
	var sum time.Duration
	for _, smp := range ctl.History {
		sum += smp.Window
	}
	span := time.Duration(ctl.History[len(ctl.History)-1].At) // engine starts at 0; first window starts there
	if sum != span {
		t.Fatalf("windows sum to %v, history spans %v", sum, span)
	}
	if m.Msgs.Total() == 0 {
		t.Fatal("no traffic was ever observed")
	}
}
