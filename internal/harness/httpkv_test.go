package harness

import (
	"fmt"
	"testing"
	"time"
)

// httpkv claim tests: the HTTP+KV composite application is written
// purely against net.Conn via the ixnet facade, so these runs prove the
// blocking bridge carries a real protocol stack — request parsing,
// keep-alive, connection pooling, read-your-write verification — on
// every stack, with the paper's IX > Linux ordering intact.

func httpkvSetup(arch Arch) HTTPKVSetup {
	return HTTPKVSetup{
		Arch:   arch,
		Warmup: 10 * time.Millisecond,
		Window: 40 * time.Millisecond,
	}
}

// TestClaimHTTPKVAllStacks: the same net.Conn application code runs
// unmodified on IX, Linux and mTCP; every request verifies its echo
// body and every KV GET reads back the preceding SET, so a nonzero ops
// count with zero verify errors is an end-to-end correctness proof for
// the facade on that stack. Drained clusters must leak nothing.
func TestClaimHTTPKVAllStacks(t *testing.T) {
	ops := map[Arch]float64{}
	for _, arch := range []Arch{ArchIX, ArchLinux, ArchMTCP} {
		res := RunHTTPKV(httpkvSetup(arch))
		t.Logf("%v: http=%.0f/s kv=%.0f/s p50=%v p99=%v", arch,
			res.HTTPPerSec, res.KVPerSec, res.RTTp50, res.RTTp99)
		if res.HTTPPerSec <= 0 || res.KVPerSec <= 0 {
			t.Errorf("%v: no throughput (http=%v kv=%v)", arch, res.HTTPPerSec, res.KVPerSec)
		}
		if res.Errors != 0 || res.VerifyErrors != 0 {
			t.Errorf("%v: errors=%d verifyErrors=%d, want zero", arch, res.Errors, res.VerifyErrors)
		}
		if res.KVHits == 0 {
			t.Errorf("%v: KV store recorded no hits", arch)
		}
		if res.Leaked != (Leaks{}) {
			t.Errorf("%v: leaked %+v at drain", arch, res.Leaked)
		}
		ops[arch] = res.HTTPPerSec + res.KVPerSec
	}
	if !(ops[ArchIX] > ops[ArchLinux]) {
		t.Errorf("ordering violated: IX=%.0f ops/s should exceed Linux=%.0f ops/s",
			ops[ArchIX], ops[ArchLinux])
	}
}

// TestClaimHTTPKVDeterminism: a fixed-seed httpkv run — hundreds of
// fibers parking and waking across two server hosts and a pooled
// client — is byte-identical across executions. This is the facade's
// determinism contract: FIFO run-queue wakeup plus virtual-time
// deadlines leave the seed as the only source of variation.
func TestClaimHTTPKVDeterminism(t *testing.T) {
	run := func() string {
		return fmt.Sprintf("%+v", RunHTTPKV(httpkvSetup(ArchIX)))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fixed-seed httpkv runs differ:\n  run1: %s\n  run2: %s", a, b)
	}
}
