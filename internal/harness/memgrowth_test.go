package harness

import (
	"runtime"
	"testing"
	"time"

	"ix/internal/faults"
)

// drainedFootprint quiesces the bench — no new RPCs, in-flight ones
// complete, retransmission and delayed-ACK tails clear — and samples the
// server's memprobe footprint. The drained instant is the comparable
// one: live traffic pins transient state (arena chunks, recycle batches,
// spilled retransmission backings) by design.
func drainedFootprint(b *EchoBench) (int64, int) {
	drain(b)
	f := b.cl.hosts[0].Footprint()
	return f.Bytes, f.Conns
}

// drain pauses the fleet and runs until nothing is in flight anywhere.
func drain(b *EchoBench) {
	b.fleet.Pause()
	db := drainBudget + time.Duration(b.fleet.InFlight())*drainPerMsg
	b.runUntil(db, drainStep, func() bool { return b.fleet.InFlight() == 0 })
	b.cl.Run(5 * time.Millisecond)
}

// TestIdleConnsHoldNoIOState is the idle-field rule end to end, on each
// of the three stacks as the server (and linuxstack as every client): a
// 10k-connection population with a handful of RPCs rotating over it is
// drained, after which no connection on any host holds an in-flight
// side object — retransmission state, reassembly queue, borrowed
// connIO or socket buffers — and what the pools retain is bounded by
// how many connections ever had something in flight at once, not by the
// population. The same drained point pins the Go heap the testbed holds
// live per connection pair, which memprobe does not see all of:
// application state (the echo records an idle connection does without)
// as well as the PCBs, sockets and tables.
func TestIdleConnsHoldNoIOState(t *testing.T) {
	const (
		conns       = 10_240
		outstanding = 3
		hosts       = 4
		cores       = 4
	)
	// Live heap per connection pair when the ceiling was set, plus 5 %.
	heapCeiling := map[Arch]float64{ArchIX: 400, ArchLinux: 347, ArchMTCP: 364}
	for _, arch := range []Arch{ArchIX, ArchLinux, ArchMTCP} {
		t.Run(arch.String(), func(t *testing.T) {
			before := liveHeap()
			b := NewEchoBench(EchoSetup{
				ServerArch: arch, ServerCores: 4,
				ClientArch: ArchLinux, ClientHosts: hosts, ClientCores: cores,
				MsgSize: 64, RampBatch: 16, RampGap: Fig4QuietGap(arch, hosts*cores),
				ExpectedConns: conns,
			})
			res := b.MeasurePoint(conns, outstanding, 3*time.Millisecond)
			if res.ServerConns < conns || res.MsgsPerSec <= 0 {
				t.Fatalf("established %d of %d connections, %.0f msgs/s", res.ServerConns, conns, res.MsgsPerSec)
			}
			if busy := b.cl.hosts[0].Footprint(); busy.Attached == 0 {
				t.Fatal("no side object attached under load — the probe is not seeing them")
			}
			drain(b)
			perPair := float64(liveHeap()-before) / conns
			runtime.KeepAlive(b)
			t.Logf("live heap %.1f B per connection pair", perPair)
			if perPair > heapCeiling[arch] {
				t.Errorf("live heap %.1f B per connection pair, ceiling %.0f B", perPair, heapCeiling[arch])
			}
			total := 0
			for i, h := range b.cl.hosts {
				f := h.Footprint()
				total += f.Conns
				if f.Attached != 0 {
					t.Errorf("host %d: %d side objects still attached across %d idle connections", i, f.Attached, f.Conns)
				}
				// A pool only ever holds objects that were attached at the
				// same instant: RPCs in flight plus responses awaiting the
				// client's delayed ACK — a property of the load (tens to a
				// few hundred here), where a per-connection cost would be
				// one or two objects per connection.
				if f.Pooled*8 > f.Conns {
					t.Errorf("host %d: pools retain %d objects for %d connections — scaling with the population, not the load",
						i, f.Pooled, f.Conns)
				}
				t.Logf("host %d: conns=%d bytes/conn=%.1f pooled=%d", i, f.Conns, f.PerConn(), f.Pooled)
			}
			if total < 2*conns {
				t.Fatalf("probed %d connection ends, want %d", total, 2*conns)
			}
			for i, s := range baselineSlabs(b.cl) {
				if s[0] != 0 {
					t.Errorf("baseline host %d: %d staging slabs attached after the drain", i, s[0])
				}
			}
		})
	}
}

// liveHeap returns the bytes of Go heap live after a collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// baselineSlabs lists each Linux and mTCP host's staging slabs, attached
// and free.
func baselineSlabs(cl *Cluster) [][2]int {
	var out [][2]int
	for _, h := range cl.hosts {
		if sh, ok := h.(interface{ Slabs() (int, int) }); ok {
			inUse, free := sh.Slabs()
			out = append(out, [2]int{inUse, free})
		}
	}
	return out
}

// TxRingDrops sums frames dropped at full NIC TX rings over every host:
// the one host-side discard the stacks do not see (Post reports it, the
// kernel models carry on), so a lossless run must read 0 here.
func (c *Cluster) TxRingDrops() uint64 {
	var n uint64
	for _, h := range c.hosts {
		n += h.NIC().TxDrops()
	}
	return n
}

// TestLinuxBulkSlabsDrain: 64 KiB echoes with Linux on both ends, then
// with mTCP on both ends, stage every message through slabs, on the
// server and on every client. After the drain no slab is attached
// anywhere, each pool holds at most a few slabs per connection it served,
// and no frame was dropped at a TX ring.
func TestLinuxBulkSlabsDrain(t *testing.T) {
	const conns = 16
	for _, arch := range []Arch{ArchLinux, ArchMTCP} {
		t.Run(arch.String(), func(t *testing.T) {
			b := NewEchoBench(EchoSetup{
				ServerArch: arch, ServerCores: 2,
				ClientArch: arch, ClientHosts: 2, ClientCores: 2,
				MsgSize: 64 << 10, ExpectedConns: conns,
			})
			res := b.MeasurePoint(conns, 1, 4*time.Millisecond)
			if res.ServerConns < conns || res.MsgsPerSec <= 0 {
				t.Fatalf("established %d of %d connections, %.0f msgs/s", res.ServerConns, conns, res.MsgsPerSec)
			}
			drain(b)
			slabs := baselineSlabs(b.cl)
			if len(slabs) != 3 {
				t.Fatalf("%d %v hosts, want 3", len(slabs), arch)
			}
			for i, s := range slabs {
				if s[0] != 0 {
					t.Errorf("host %d: %d slabs attached after the drain", i, s[0])
				}
				if s[1] == 0 || s[1] > 4*conns {
					t.Errorf("host %d: pool holds %d slabs for %d connections", i, s[1], conns)
				}
			}
			if d := b.cl.TxRingDrops(); d != 0 {
				t.Errorf("%d frames dropped at full TX rings", d)
			}
		})
	}
}

// TestFootprintRecoveryAfterBurstLoss drives the inline→spill→release
// cycle end to end: a Gilbert–Elliott loss burst on a client's link
// forces multi-segment echo responses into RTO storms, spilling
// retransmission queues past their inline capacity and re-materializing
// receive buffers; once the link heals and traffic drains, the server's
// footprint must return to the pre-fault drained baseline — spilled
// backings, arena chunks and receive buffers all released, nothing
// pinned by the burst.
func TestFootprintRecoveryAfterBurstLoss(t *testing.T) {
	const conns = 768
	threads := 4 * 4
	b := NewEchoBench(EchoSetup{
		ServerArch: ArchIX, ServerCores: 2,
		ClientArch: ArchLinux, ClientHosts: 4, ClientCores: 4,
		MsgSize:   4096, // 3 segments per response: spill-prone under loss
		RampBatch: 16, RampGap: Fig4QuietGap(ArchIX, threads),
		ExpectedConns: conns,
	})

	b.MeasurePoint(conns, 3, 3*time.Millisecond)
	baseBytes, baseConns := drainedFootprint(b)
	if baseConns < conns {
		t.Fatalf("baseline established %d conns, want %d", baseConns, conns)
	}

	// Burst loss on one client's link while the whole fleet keeps
	// echoing: the server's responses toward that client retransmit
	// until the RTO storm subsides.
	site := b.cl.Faults(b.cl.hosts[1])
	site.Apply(faults.Config{GE: faults.GELoss(0.05)})
	b.MeasurePoint(conns, 3, 10*time.Millisecond)
	site.Heal()

	rexmit := uint64(0)
	dp := b.cl.IXServer(0)
	for i := 0; i < dp.Threads(); i++ {
		rexmit += dp.Thread(i).Stack().TCP().Retransmits
	}
	if rexmit == 0 {
		t.Fatal("no server retransmissions — the loss burst exercised nothing")
	}

	// Recover and re-drain. The population is back at the target and
	// every burst-era backing must be gone: the budget allows only the
	// churn the fault itself caused (cookie-table free-stack growth from
	// torn-down connections), a fraction of a percent.
	b.MeasurePoint(conns, 3, 3*time.Millisecond)
	afterBytes, afterConns := drainedFootprint(b)
	if afterConns != baseConns {
		t.Fatalf("population drifted across the fault: %d conns vs baseline %d", afterConns, baseConns)
	}
	if limit := baseBytes + baseBytes/50; afterBytes > limit {
		t.Fatalf("footprint did not recover: %d bytes drained vs %d baseline (+%.1f%%)",
			afterBytes, baseBytes, 100*float64(afterBytes-baseBytes)/float64(baseBytes))
	}
	t.Logf("drained footprint: baseline=%d after-burst=%d (rexmit=%d)", baseBytes, afterBytes, rexmit)
}

// TestPresizeGrowShrinkDeterminism pins the presized-table contract
// with three growing points up to ExpectedConns: a fixed-seed rerun is
// identical sample for sample, drained footprints included — the
// accounting must not depend on map iteration or scheduling.
func TestPresizeGrowShrinkDeterminism(t *testing.T) {
	type sample struct {
		bytes int64
		conns int
	}
	run := func() []sample {
		threads := 4 * 4
		b := NewEchoBench(EchoSetup{
			ServerArch: ArchIX, ServerCores: 4,
			ClientArch: ArchLinux, ClientHosts: 4, ClientCores: 4,
			MsgSize: 64, RampBatch: 16, RampGap: Fig4QuietGap(ArchIX, threads),
			ExpectedConns: 2400,
		})
		var out []sample
		for _, point := range []int{400, 1600, 2400} {
			b.MeasurePoint(point, 3, 2*time.Millisecond)
			bytes, conns := drainedFootprint(b)
			out = append(out, sample{bytes, conns})
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d: rerun diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	t.Logf("grow samples: %+v", a)
}
