package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"ix/internal/mutilate"
)

var update = flag.Bool("update", false, "rewrite testdata/baseline_capture.golden")

// TestBaselineCapture pins exact fixed-seed echo and memcached results
// against testdata/baseline_capture.golden, so a change that moves any
// simulated number fails here. A change that means to move them rewrites
// the file with
//
//	go test ./internal/harness -run TestBaselineCapture -update
//
// and says why. The file is recorded on amd64: other architectures may
// fuse floating-point multiply-adds and round a rate differently.
func TestBaselineCapture(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden file recorded on amd64")
	}
	var out bytes.Buffer
	type cfg struct {
		name string
		s    EchoSetup
	}
	cases := []cfg{
		{"ix-echo", EchoSetup{
			ServerArch: ArchIX, ServerCores: 2,
			ClientArch: ArchLinux, ClientHosts: 2, ClientCores: 2,
			ConnsPerThread: 4, Rounds: 8, MsgSize: 64,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"ix-netpipe-4k", EchoSetup{
			ServerArch: ArchIX, ServerCores: 1,
			ClientArch: ArchIX, ClientHosts: 1, ClientCores: 1,
			ConnsPerThread: 1, Rounds: 0, MsgSize: 4096,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"mtcp-echo", EchoSetup{
			ServerArch: ArchMTCP, ServerCores: 2,
			ClientArch: ArchLinux, ClientHosts: 2, ClientCores: 2,
			ConnsPerThread: 4, Rounds: 8, MsgSize: 64,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"linux-echo", EchoSetup{
			ServerArch: ArchLinux, ServerCores: 2,
			ClientArch: ArchLinux, ClientHosts: 2, ClientCores: 2,
			ConnsPerThread: 4, Rounds: 8, MsgSize: 64,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"ix-rotation", EchoSetup{
			ServerArch: ArchIX, ServerCores: 2,
			ClientArch: ArchLinux, ClientHosts: 2, ClientCores: 2,
			ConnsPerThread: 50, Outstanding: 3, MsgSize: 64,
			Warmup: 3 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"ix-bigmsg", EchoSetup{
			ServerArch: ArchIX, ServerCores: 1,
			ClientArch: ArchIX, ClientHosts: 1, ClientCores: 1,
			ConnsPerThread: 1, Rounds: 0, MsgSize: 262144,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		// Bulk over the Linux socket staging on both ends (the slab path).
		{"linux-bulk-64k", EchoSetup{
			ServerArch: ArchLinux, ServerCores: 2,
			ClientArch: ArchLinux, ClientHosts: 2, ClientCores: 2,
			ConnsPerThread: 2, Rounds: 0, MsgSize: 65536,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		// Bulk over mTCP on both ends (the slab path). One connection never
		// queues more than a slab between reads; four per thread do, so an
		// mtcp_read spans several slabs.
		{"mtcp-netpipe-256k", EchoSetup{
			ServerArch: ArchMTCP, ServerCores: 1,
			ClientArch: ArchMTCP, ClientHosts: 1, ClientCores: 1,
			ConnsPerThread: 1, Rounds: 0, MsgSize: 262144,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"mtcp-bulk-256k-x4", EchoSetup{
			ServerArch: ArchMTCP, ServerCores: 1,
			ClientArch: ArchMTCP, ClientHosts: 1, ClientCores: 1,
			ConnsPerThread: 4, Rounds: 0, MsgSize: 262144,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
	}
	for _, c := range cases {
		res := RunEcho(c.s)
		fmt.Fprintf(&out, "%s: msgs=%.6f conns=%.6f p50=%v p99=%v mean=%v srvconns=%d kshare=%.9f batch=%.9f drops=%d kpm=%v\n",
			c.name, res.MsgsPerSec, res.ConnsPerSec, res.RTTp50, res.RTTp99, res.RTTMean,
			res.ServerConns, res.ServerKernelShare, res.MeanBatch, res.Drops, res.KernelPerMsg)
	}
	// memcached under mutilate (§5.5) on both server architectures, one
	// fixed offered load per workload: the parser, the store and the
	// request builders, end to end.
	memc := func(arch Arch, batch int, w mutilate.Workload) MemcSetup {
		return MemcSetup{
			ServerArch: arch, ServerCores: 2, BatchBound: batch,
			Workload: w, TargetRPS: 300_000,
			ClientHosts: 4, ClientCores: 2, ConnsPerThread: 8,
			Warmup: 3 * time.Millisecond, Window: 6 * time.Millisecond,
		}
	}
	memcCases := []struct {
		name string
		s    MemcSetup
	}{
		{"ix-memc-etc", memc(ArchIX, 64, mutilate.ETC)},
		{"ix-memc-usr", memc(ArchIX, 64, mutilate.USR)},
		{"linux-memc-etc", memc(ArchLinux, 0, mutilate.ETC)},
		{"linux-memc-usr", memc(ArchLinux, 0, mutilate.USR)},
	}
	for _, c := range memcCases {
		res := RunMemcached(c.s)
		fmt.Fprintf(&out, "%s: rps=%.6f agentp99=%v agentmean=%v loadp99=%v kshare=%.9f hits=%d misses=%d\n",
			c.name, res.AchievedRPS, res.AgentP99, res.AgentMean, res.LoadP99,
			res.ServerKernelShare, res.Hits, res.Misses)
	}
	const golden = "testdata/baseline_capture.golden"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("fixed-seed results differ from %s\ngot:\n%swant:\n%s", golden, out.Bytes(), want)
	}
}
