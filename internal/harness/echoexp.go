package harness

import (
	"time"

	"ix/internal/apps/echo"
	"ix/internal/cost"
)

// EchoSetup describes one echo experiment run.
type EchoSetup struct {
	ServerArch  Arch
	ServerCores int
	ServerPorts int // 1 = 10GbE, 4 = 4x10GbE
	BatchBound  int

	// IXCost optionally overrides the server cost model (ablations).
	IXCost *cost.IX

	ClientArch  Arch
	ClientHosts int
	ClientCores int
	// ConnsPerThread is connections each client thread keeps open.
	ConnsPerThread int
	// Outstanding is the RPCs each client thread keeps in flight (see
	// echo.ClientConfig); zero means one per connection.
	Outstanding int
	// RampBatch/RampGap pace connection establishment (see
	// echo.ClientConfig); zero means the echo defaults.
	RampBatch int
	RampGap   time.Duration
	// QuietRamp defers all RPC traffic until each client thread's full
	// connection population is established, letting handshakes run
	// without data segments competing for NIC rings, event queues or
	// client CPU — the establishment fast path of the large Fig. 4
	// points.
	QuietRamp bool
	// Rounds is n round trips per connection before RST (0 = infinite).
	Rounds  int
	MsgSize int

	// ExpectedConns overrides the server's anticipated steady-state
	// population for table presizing. Zero derives it from the static
	// fleet shape (ClientHosts × ClientCores × ConnsPerThread); set it
	// explicitly in persistent-cluster mode, where the population is
	// established dynamically and ConnsPerThread is zero at build time.
	ExpectedConns int

	Warmup, Window time.Duration
	Seed           int64
}

// EchoResult is the measured steady-state behaviour.
type EchoResult struct {
	MsgsPerSec  float64
	ConnsPerSec float64
	// GoodputBps is application payload bits/s in one direction.
	GoodputBps float64
	RTTp50     time.Duration
	RTTp99     time.Duration
	RTTMean    time.Duration
	// ServerKernelShare is kernel CPU time / total busy CPU time.
	ServerKernelShare float64
	MeanBatch         float64
	Drops             uint64
	// KernelPerMsg is server kernel time per delivered message (IX only).
	KernelPerMsg time.Duration
	// ServerConns is the server's live connection count at window end
	// (the established-connection axis of Fig. 4).
	ServerConns int
	// ServerBytesPerConn is the server's live per-connection memory at
	// window end under the memprobe accounting contract (the Fig. 4
	// bytes/conn budget).
	ServerBytesPerConn float64
}

// echoPort is the well-known echo service port of the testbed.
const echoPort = 9000

// buildEchoCluster assembles the echo testbed of s — one server host and
// the client fleet sharing one metrics sink — and optionally registers
// the client threads with a fleet coordinator (persistent-cluster mode).
func buildEchoCluster(s *EchoSetup, m *echo.Metrics, fl *echo.Fleet) *Cluster {
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.ServerPorts == 0 {
		s.ServerPorts = 1
	}
	cl := NewCluster(s.Seed)
	// The server's steady-state population is known up front — the
	// fleet's full connection count — so its tables are presized
	// instead of doubling their way up during the ramp.
	expected := s.ExpectedConns
	if expected == 0 {
		expected = s.ClientHosts * s.ClientCores * s.ConnsPerThread
	}
	cl.AddHost("server", HostSpec{
		Arch:          s.ServerArch,
		Cores:         s.ServerCores,
		Ports:         s.ServerPorts,
		BatchBound:    s.BatchBound,
		IXCost:        s.IXCost,
		Factory:       echo.ServerFactory(echoPort, s.MsgSize),
		ExpectedConns: expected,
	})
	srvIP := cl.hosts[0].IP()
	for i := 0; i < s.ClientHosts; i++ {
		cl.AddHost("client", HostSpec{
			Arch:  s.ClientArch,
			Cores: s.ClientCores,
			Factory: echo.ClientFactory(echo.ClientConfig{
				ServerIP:    srvIP,
				Port:        echoPort,
				MsgSize:     s.MsgSize,
				Rounds:      s.Rounds,
				Conns:       s.ConnsPerThread,
				Outstanding: s.Outstanding,
				RampBatch:   s.RampBatch,
				RampGap:     s.RampGap,
				QuietRamp:   s.QuietRamp,
				Fleet:       fl,
				Metrics:     m,
			}),
		})
	}
	return cl
}

// resetEchoServerStats starts a fresh server measurement window (the
// mTCP model keeps no CPU meters).
func resetEchoServerStats(cl *Cluster) {
	if srv, ok := cl.hosts[0].(meteredHost); ok {
		srv.ResetStats()
	}
}

// collectEcho reads one measurement window's results off the testbed.
func collectEcho(cl *Cluster, s *EchoSetup, m *echo.Metrics, window time.Duration) EchoResult {
	res := EchoResult{
		MsgsPerSec:  float64(m.Msgs.Since()) / window.Seconds(),
		ConnsPerSec: float64(m.Conns.Since()) / window.Seconds(),
		RTTp50:      m.Latency.Quantile(0.5),
		RTTp99:      m.Latency.Quantile(0.99),
		RTTMean:     m.Latency.Mean(),
	}
	res.GoodputBps = res.MsgsPerSec * float64(s.MsgSize) * 8
	res.ServerConns = cl.hosts[0].ConnCount()
	res.ServerBytesPerConn = cl.hosts[0].Footprint().PerConn()
	if s.ServerArch == ArchIX {
		dp := cl.IXServer(0)
		k, u := dp.CPUBreakdown()
		if k+u > 0 {
			res.ServerKernelShare = float64(k) / float64(k+u)
		}
		if msgs := m.Msgs.Since(); msgs > 0 {
			res.KernelPerMsg = k / time.Duration(msgs)
		}
		res.MeanBatch = dp.MeanBatch()
		res.Drops = dp.NIC().RxDrops
	}
	return res
}

// RunEcho builds a cluster per setup, warms it, measures a window, and
// returns steady-state rates.
func RunEcho(s EchoSetup) EchoResult {
	m := echo.NewMetrics()
	cl := buildEchoCluster(&s, m, nil)
	cl.Start()
	cl.Run(s.Warmup)
	m.ResetWindow()
	resetEchoServerStats(cl)
	cl.Run(s.Window)
	return collectEcho(cl, &s, m, s.Window)
}
