package harness

import (
	"runtime"
	"testing"
	"time"

	"ix/internal/apps/echo"
)

// TestEchoTestbedHostHeap pins the host memory a small echo testbed
// holds live: an IX echo server and six 4-core Linux clients, four
// 64 B RPCs in flight per client thread over 96 connections. The model
// provisions 16 KiB per TX arena chunk and a 1 024-slot timer wheel
// per core; the host backs a chunk with only the bytes written and a
// slot with one pointer, so the whole testbed stays near half a
// megabyte. A host-memory regression on the per-packet path shows here
// before it shows in a benchmark's live-heap reading.
func TestEchoTestbedHostHeap(t *testing.T) {
	const (
		port     = 9000
		hosts    = 6
		cores    = 4
		conns    = 4
		msgSize  = 64
		budgetMB = 1.5
	)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc

	cl := NewCluster(20140611)
	m := echo.NewMetrics()
	server := cl.AddHost("server", HostSpec{
		Arch: ArchIX, Cores: 8, Ports: 1,
		Factory:       echo.ServerFactory(port, msgSize),
		ExpectedConns: hosts * cores * conns,
	})
	for i := 0; i < hosts; i++ {
		cl.AddHost("client", HostSpec{
			Arch: ArchLinux, Cores: cores,
			Factory: echo.ClientFactory(echo.ClientConfig{
				ServerIP: server.IP(), Port: port, MsgSize: msgSize,
				Conns: conns, Outstanding: conns, Metrics: m,
			}),
		})
	}
	cl.Start()
	cl.Run(20 * time.Millisecond)
	if m.Msgs.Total() == 0 {
		t.Fatal("no RPC completed")
	}

	runtime.GC()
	runtime.ReadMemStats(&ms)
	liveMB := (float64(ms.HeapAlloc) - float64(before)) / (1 << 20)
	runtime.KeepAlive(cl)
	t.Logf("testbed live heap %.2f MB", liveMB)
	if liveMB > budgetMB {
		t.Fatalf("the testbed holds %.2f MB of live heap, budget %.1f MB", liveMB, budgetMB)
	}
}
