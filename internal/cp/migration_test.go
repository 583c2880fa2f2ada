package cp_test

import (
	"testing"
	"time"

	"ix/internal/app"
	"ix/internal/apps/echo"
	"ix/internal/cp"
	"ix/internal/harness"
)

// timersPerThread one-shot continuity probes are registered when each
// elastic thread spawns; every one must fire even if its thread's core is
// revoked before the deadline.
const timersPerThread = 4

// probedFactory wraps an application factory so each elastic thread
// registers continuity-probe timers at start.
func probedFactory(inner app.Factory, fired *int) app.Factory {
	// Short probes fire while their thread is still running; the long
	// ones are guaranteed to still be pending when the down-ramp revokes
	// threads 1–3, so they only fire if revocation re-homes them.
	probes := [timersPerThread]time.Duration{
		4 * time.Millisecond, 12 * time.Millisecond,
		45 * time.Millisecond, 70 * time.Millisecond,
	}
	return func(env app.Env, thread, threads int) app.Handler {
		for _, d := range probes {
			env.After(d, func() { *fired++ })
		}
		return inner(env, thread, threads)
	}
}

// TestFlowGroupMigration141 is the deterministic elastic scaling
// round-trip: a load ramp drives one IX dataplane 1→4 threads and back to
// 1, with every flow group migrating via the RSS indirection table. It
// asserts the §4.4 migration invariants:
//
//   - no packet loss: zero NIC-edge drops, zero mbuf-pool drops, and
//     zero TCP retransmissions anywhere in the cluster;
//   - no intra-flow reordering: zero out-of-order TCP segments on the
//     server and on every client (a reordering migration would put
//     segments into reassembly);
//   - timer continuity: user timers registered on threads that were
//     later revoked still fire, with their original deadlines;
//   - protection: no syscall-gate violations on surviving threads.
func TestFlowGroupMigration141(t *testing.T) {
	cl := harness.NewCluster(29)
	m := echo.NewMetrics()
	fired := 0
	registered := 0

	cl.AddHost("server", harness.HostSpec{
		Arch: harness.ArchIX, Cores: 1, MaxThreads: 4,
		Factory: probedFactory(func(env app.Env, thread, threads int) app.Handler {
			registered += timersPerThread
			return echo.ServerFactory(9000, 64)(env, thread, threads)
		}, &fired),
	})
	srv := cl.IXServer(0)
	// 8 client machines: enough closed-loop offered load to push the
	// server through the 0.9-utilization grow threshold at 3 threads.
	// (PR 5's linuxstack event routing — established sockets wake their
	// owning core's epoll instead of the RSS core's — ended an artifact
	// where one client thread's connections were serviced in parallel by
	// every core of its host, inflating each host's offered load; the
	// old 6-host fleet then saturated only 3 server threads.)
	const clientHosts = 8
	for i := 0; i < clientHosts; i++ {
		cl.AddHost("client", harness.HostSpec{
			Arch: harness.ArchLinux, Cores: 4,
			Factory: echo.ClientFactory(echo.ClientConfig{
				ServerIP: srv.IP(), Port: 9000, MsgSize: 64,
				Rounds: 64, Conns: 8, Metrics: m,
			}),
		})
	}
	cl.Start()
	ctl := cp.New(cl.Eng, srv, cp.DefaultPolicy())
	ctl.Start()

	// Ramp up: run until the controller has grown the dataplane to its
	// full hardware budget.
	deadline := 60 * time.Millisecond
	for elapsed := time.Duration(0); srv.Threads() < 4; elapsed += time.Millisecond {
		if elapsed > deadline {
			t.Fatalf("never scaled to 4 threads (at %d after %v)", srv.Threads(), deadline)
		}
		cl.Run(time.Millisecond)
	}
	msgsAtPeak := m.Msgs.Total()
	cl.Run(5 * time.Millisecond)
	if m.Msgs.Total() == msgsAtPeak {
		t.Fatal("traffic stalled at peak allocation")
	}

	// Ramp down: stop the load and run until full consolidation.
	m.Running = false
	for elapsed := time.Duration(0); srv.Threads() > 1; elapsed += time.Millisecond {
		if elapsed > deadline {
			t.Fatalf("never consolidated to 1 thread (at %d after %v)", srv.Threads(), deadline)
		}
		cl.Run(time.Millisecond)
	}
	// Let the continuity probes on late-spawned threads expire (the
	// longest is 70 ms after a spawn that happens within the first ramp).
	cl.Run(100 * time.Millisecond)

	if srv.Migrations == 0 || srv.FlowsMigrated == 0 {
		t.Fatalf("no migrations recorded: %d groups, %d flows", srv.Migrations, srv.FlowsMigrated)
	}

	// No packet loss and no intra-flow reordering — aggregated across
	// every elastic thread the server ever had, including the revoked
	// ones (LossTotals still reads revoked threads, so a violation on a
	// thread that later disappears still fails the test).
	if d := srv.NIC().RxDrops; d != 0 {
		t.Errorf("server NIC-edge drops: %d", d)
	}
	ooo, retrans, fastRetrans, poolDrops := srv.LossTotals()
	if poolDrops != 0 {
		t.Errorf("server mbuf pool drops: %d", poolDrops)
	}
	if retrans != 0 || fastRetrans != 0 {
		t.Errorf("server retransmits: %d slow, %d fast", retrans, fastRetrans)
	}
	if ooo != 0 {
		t.Errorf("server saw %d out-of-order segments", ooo)
	}

	// The client side of every flow must agree.
	for i := 0; i < clientHosts; i++ {
		ctcp := cl.LinuxHost(i).Stack().TCP()
		if ctcp.OutOfOrderSegs != 0 {
			t.Errorf("client %d saw %d out-of-order segments", i, ctcp.OutOfOrderSegs)
		}
		if ctcp.Retransmits != 0 {
			t.Errorf("client %d retransmitted %d segments", i, ctcp.Retransmits)
		}
	}

	// Timer continuity: probes registered on threads 1–3 (revoked on the
	// way down) must have fired exactly once each.
	if registered != 4*timersPerThread {
		t.Fatalf("expected %d probe timers, registered %d", 4*timersPerThread, registered)
	}
	if fired != registered {
		t.Errorf("timer continuity broken: %d/%d probes fired", fired, registered)
	}

	// Protection invariants survive handle re-granting.
	for i := 0; i < srv.Threads(); i++ {
		if v := srv.Thread(i).Gate().TotalViolations(); v != 0 {
			t.Errorf("thread %d has %d gate violations after migrations", i, v)
		}
	}
}

// TestMigrationDeterminism: two identical runs produce identical
// controller logs and migration counts (the simulation is a deterministic
// function of the seed, including every migration point).
func TestMigrationDeterminism(t *testing.T) {
	run := func() (log []cp.Event, migrations, flows uint64, msgs uint64) {
		cl := harness.NewCluster(31)
		m := echo.NewMetrics()
		cl.AddHost("server", harness.HostSpec{
			Arch: harness.ArchIX, Cores: 1, MaxThreads: 4,
			Factory: echo.ServerFactory(9000, 64),
		})
		srv := cl.IXServer(0)
		for i := 0; i < 4; i++ {
			cl.AddHost("client", harness.HostSpec{
				Arch: harness.ArchLinux, Cores: 4,
				Factory: echo.ClientFactory(echo.ClientConfig{
					ServerIP: srv.IP(), Port: 9000, MsgSize: 64,
					Rounds: 64, Conns: 8, Metrics: m,
				}),
			})
		}
		cl.Start()
		ctl := cp.New(cl.Eng, srv, cp.DefaultPolicy())
		ctl.Start()
		cl.Run(20 * time.Millisecond)
		m.Running = false
		cl.Run(20 * time.Millisecond)
		return ctl.Log, srv.Migrations, srv.FlowsMigrated, m.Msgs.Total()
	}
	l1, g1, f1, m1 := run()
	l2, g2, f2, m2 := run()
	if g1 != g2 || f1 != f2 || m1 != m2 {
		t.Fatalf("runs diverged: migrations %d/%d flows %d/%d msgs %d/%d", g1, g2, f1, f2, m1, m2)
	}
	if len(l1) != len(l2) {
		t.Fatalf("controller logs diverged: %d vs %d events", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("controller log event %d diverged: %+v vs %+v", i, l1[i], l2[i])
		}
	}
}

// TestRevokedPoolsStayCounted: a connection migrated off a revoked thread
// keeps the TX arena chunks and receive mbufs it holds from that
// thread's pools, so the dataplane's conservation counts go on seeing
// the revoked thread's pools: TxChunksInUse and MbufsInUse read the same
// just before and just after the revocation, and the cluster drains to
// zero of each once the load stops.
func TestRevokedPoolsStayCounted(t *testing.T) {
	const size = 64 << 10
	cl := harness.NewCluster(37)
	m := echo.NewMetrics()
	cl.AddHost("server", harness.HostSpec{
		Arch: harness.ArchIX, Cores: 2, MaxThreads: 2,
		Factory: echo.ServerFactory(9000, size),
	})
	srv := cl.IXServer(0)
	for i := 0; i < 2; i++ {
		cl.AddHost("client", harness.HostSpec{
			Arch: harness.ArchLinux, Cores: 2,
			Factory: echo.ClientFactory(echo.ClientConfig{
				ServerIP: srv.IP(), Port: 9000, MsgSize: size,
				Conns: 2, Metrics: m,
			}),
		})
	}
	cl.Start()
	cl.Run(2 * time.Millisecond)

	victim := srv.Thread(1)
	if victim.TxPool().InUse() == 0 {
		t.Fatal("the thread about to be revoked lends out no TX chunks")
	}
	chunks, mbufs := srv.TxChunksInUse(), srv.MbufsInUse()
	if err := srv.RemoveElasticThread(); err != nil {
		t.Fatal(err)
	}
	if srv.FlowsMigrated == 0 {
		t.Fatal("no connection migrated off the revoked thread")
	}
	if got := srv.TxChunksInUse(); got != chunks {
		t.Errorf("TxChunksInUse %d before the revocation, %d after", chunks, got)
	}
	if got := srv.MbufsInUse(); got != mbufs {
		t.Errorf("MbufsInUse %d before the revocation, %d after", mbufs, got)
	}

	m.Running = false
	cl.Run(50 * time.Millisecond)
	if l := cl.Leaks(); l != (harness.Leaks{}) {
		t.Errorf("pools not drained after the load stopped: %+v", l)
	}
}
