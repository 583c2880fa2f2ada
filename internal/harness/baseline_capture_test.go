package harness

// Temporary determinism spot-capture used while refactoring the TX path:
// prints exact fixed-seed outputs so byte-identical behaviour can be
// verified across the change. Run with BASELINE_CAPTURE=1.

import (
	"fmt"
	"os"
	"testing"
	"time"

	"ix/internal/mutilate"
)

func TestBaselineCapture(t *testing.T) {
	if os.Getenv("BASELINE_CAPTURE") == "" {
		t.Skip("set BASELINE_CAPTURE=1 to run")
	}
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
		fmt.Printf("%s: msgs=%.6f conns=%.6f p50=%v p99=%v mean=%v srvconns=%d kshare=%.9f batch=%.9f drops=%d kpm=%v\n",
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
		fmt.Printf("%s: rps=%.6f agentp99=%v agentmean=%v loadp99=%v kshare=%.9f hits=%d misses=%d\n",
			c.name, res.AchievedRPS, res.AgentP99, res.AgentMean, res.LoadP99,
			res.ServerKernelShare, res.Hits, res.Misses)
	}
}
