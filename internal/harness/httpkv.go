package harness

import (
	"fmt"
	"time"

	"ix/internal/apps/httpkv"
)

// HTTPKVSetup describes one blocking-facade workload run: a 2-core
// HTTP/1.1 echo server host and a 2-core KV store host (both written
// purely against net.Conn through ixnet), plus a closed-loop pooled
// client fleet on the same stack, 4 fibers per thread, each alternating
// a 256 B HTTP echo and a KV SET/GET pair.
type HTTPKVSetup struct {
	// Arch is the stack every host runs.
	Arch        Arch
	ClientHosts int
	ClientCores int

	Warmup, Window time.Duration
}

// HTTPKVResult is the measured steady-state behaviour.
type HTTPKVResult struct {
	HTTPPerSec float64
	KVPerSec   float64
	RTTp50     time.Duration
	RTTp99     time.Duration
	// Errors and VerifyErrors over the whole run (not just the window):
	// both must be zero on a healthy testbed.
	Errors       uint64
	VerifyErrors uint64
	KVHits       uint64
	// Leaked is the pool imbalance after the run winds down.
	Leaked Leaks
}

const (
	httpPort = 8080
	kvPort   = 6379
)

// RunHTTPKV builds the testbed, warms it, measures a window, then
// winds the clients down and drains before checking pool balances.
func RunHTTPKV(s HTTPKVSetup) HTTPKVResult {
	if s.ClientHosts == 0 {
		s.ClientHosts = 1
	}
	if s.ClientCores == 0 {
		s.ClientCores = 2
	}
	m := httpkv.NewMetrics()
	store := httpkv.NewStore()
	cl := NewCluster(97)
	httpIP := cl.AddHost("http", HostSpec{
		Arch:    s.Arch,
		Cores:   2,
		Factory: httpkv.HTTPServerFactory(httpPort),
	}).IP()
	kvIP := cl.AddHost("kv", HostSpec{
		Arch:    s.Arch,
		Cores:   2,
		Factory: httpkv.KVServerFactory(kvPort, store),
	}).IP()
	for i := 0; i < s.ClientHosts; i++ {
		cl.AddHost("client", HostSpec{
			Arch:  s.Arch,
			Cores: s.ClientCores,
			Factory: httpkv.ClientFactory(httpkv.ClientConfig{
				HTTPIP:   httpIP,
				HTTPPort: httpPort,
				KVIP:     kvIP,
				KVPort:   kvPort,
				Workers:  4,
				BodySize: 256,
				Metrics:  m,
			}),
		})
	}
	cl.Start()
	cl.Run(s.Warmup)
	m.ResetWindow()
	cl.Run(s.Window)
	res := HTTPKVResult{
		HTTPPerSec: float64(m.HTTPOps.Since()) / s.Window.Seconds(),
		KVPerSec:   float64(m.KVOps.Since()) / s.Window.Seconds(),
		RTTp50:     m.Latency.Quantile(0.5),
		RTTp99:     m.Latency.Quantile(0.99),
		KVHits:     store.Hits,
	}
	// Wind down: workers finish the in-flight op and close their
	// connections; the drain lets FINs complete so the frame and TX
	// chunk pools return to balance.
	m.Running = false
	cl.Run(50 * time.Millisecond)
	res.Errors = m.Errors.Total()
	res.VerifyErrors = m.VerifyErrors.Total()
	res.Leaked = cl.Leaks()
	return res
}

// HTTPKV is the registry experiment: the net.Conn workload on the IX
// dataplane and the Linux baseline, same application bytes.
func HTTPKV(sc Scale) *Result {
	r := &Result{
		Name:   "httpkv",
		Figure: "blocking facade (ixnet): HTTP/1.1 + KV over net.Conn on IX and Linux",
		XLabel: "stack",
		YLabel: "operations/s",
	}
	tbl := Table{
		Title:   "httpkv: closed-loop HTTP echo + pooled KV, identical app bytes per stack",
		Columns: []string{"stack", "HTTP req/s", "KV ops/s", "p50 RTT", "p99 RTT", "errors", "verify errors", "frames leaked"},
	}
	var xs, ys []float64
	for i, arch := range []Arch{ArchIX, ArchLinux} {
		res := RunHTTPKV(HTTPKVSetup{
			Arch:        arch,
			ClientHosts: max(1, sc.EchoClients/6),
			ClientCores: max(2, sc.ClientCores/4),
			Warmup:      sc.Warmup,
			Window:      sc.Window,
		})
		xs = append(xs, float64(i))
		ys = append(ys, res.HTTPPerSec+res.KVPerSec)
		tbl.Rows = append(tbl.Rows, []string{
			arch.String(),
			fmt.Sprintf("%.0f", res.HTTPPerSec),
			fmt.Sprintf("%.0f", res.KVPerSec),
			res.RTTp50.String(),
			res.RTTp99.String(),
			fmt.Sprint(res.Errors),
			fmt.Sprint(res.VerifyErrors),
			fmt.Sprint(res.Leaked.Frames + res.Leaked.TxChunks),
		})
	}
	r.Series = []Series{{Label: "HTTP+KV ops/s", X: xs, Y: ys}}
	r.Tables = []Table{tbl}
	r.Notes = append(r.Notes,
		"Application code is written purely against net.Conn/net.Listener (internal/apps/httpkv); ixnet's deterministic fibers bridge it onto the event-driven stacks.",
		"Blocking reads park on EvRecv, blocked writes park on the writable-again condition, deadlines ride the timer service.",
	)
	return r
}
