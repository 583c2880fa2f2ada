package harness

// Temporary determinism spot-capture used while refactoring the TX path:
// prints exact fixed-seed outputs so byte-identical behaviour can be
// verified across the change. Run with BASELINE_CAPTURE=1.

import (
	"fmt"
	"os"
	"testing"
	"time"
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
	}
	for _, c := range cases {
		res := RunEcho(c.s)
		fmt.Printf("%s: msgs=%.6f conns=%.6f p50=%v p99=%v mean=%v srvconns=%d kshare=%.9f batch=%.9f drops=%d kpm=%v\n",
			c.name, res.MsgsPerSec, res.ConnsPerSec, res.RTTp50, res.RTTp99, res.RTTMean,
			res.ServerConns, res.ServerKernelShare, res.MeanBatch, res.Drops, res.KernelPerMsg)
	}
}
