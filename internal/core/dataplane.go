package core

import (
	"fmt"
	"time"

	"ix/internal/cost"
	"ix/internal/fabric"
	"ix/internal/memprobe"
	"ix/internal/netstack"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/tcp"
	"ix/internal/wire"
)

// Config describes one IX dataplane instance (one application).
type Config struct {
	IP  wire.IPv4
	MAC wire.MAC

	// Threads is the number of elastic threads at start.
	Threads int
	// MaxThreads provisions NIC queue pairs (hardware bound); defaults
	// to Threads. The control plane may grow up to this many.
	MaxThreads int
	// BatchBound is the adaptive batching upper bound B (§5.1 uses 64).
	BatchBound int
	// Cost is the dataplane cost model.
	Cost cost.IX
	// MemPages is the large-page grant from the control plane
	// (default 512 pages = 1 GB).
	MemPages int
	// MinRTO is the TCP retransmission-timeout floor (0 = tcp default).
	MinRTO time.Duration
	// ExpectedConns is the anticipated host-wide steady-state flow
	// population; each elastic thread presizes its connection table,
	// syscall gate and cookie table for its RSS share of it (0 = grow
	// on demand).
	ExpectedConns int
	// Seed makes the instance deterministic.
	Seed uint64
	// User constructs the ring-3 program for each elastic thread
	// (libix.Program does this for applications).
	User func(api *UserAPI, thread, threads int) UserProgram
}

// DefaultBatchBound is the paper's B=64 (§5.1).
const DefaultBatchBound = 64

// Dataplane is one IX instance: an application-specific OS running on
// dedicated hardware threads with pass-through NIC access.
type Dataplane struct {
	netstack.Host
	eng *sim.Engine
	cfg Config
	// threads are the live elastic threads; all holds every thread ever
	// spawned, revoked ones included, so totals and the conservation
	// counts still see what a revoked thread counted or lent out.
	threads []*ElasticThread
	all     []*ElasticThread

	// missCache avoids recomputing the DDIO penalty every cycle.
	missConns    int
	missPenalty_ time.Duration

	// Migration accounting (control-plane observability).
	//
	// Migrations counts flow-group (RETA bucket) migrations completed;
	// FlowsMigrated counts connections re-homed.
	Migrations    uint64
	FlowsMigrated uint64
}

// LossTotals aggregates the loss and reordering indicators across all
// elastic threads, including ones already revoked — migration tests
// assert on these, and a violation on a thread that is later revoked
// must stay visible.
func (d *Dataplane) LossTotals() (ooo, retrans, fastRetrans, poolDrops uint64) {
	for _, et := range d.all {
		t := et.ns.TCP()
		ooo += t.OutOfOrderSegs
		retrans += t.Retransmits
		fastRetrans += t.FastRetransmits
	}
	return ooo, retrans, fastRetrans, d.PoolDrops()
}

// New creates a dataplane. Attach NIC ports (links) before Start.
func New(eng *sim.Engine, cfg Config) *Dataplane {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.MaxThreads < cfg.Threads {
		cfg.MaxThreads = cfg.Threads
	}
	if cfg.BatchBound <= 0 {
		cfg.BatchBound = DefaultBatchBound
	}
	if cfg.Cost == (cost.IX{}) {
		cfg.Cost = cost.DefaultIX()
	}
	if cfg.User == nil {
		panic("core: Config.User is required")
	}
	d := &Dataplane{eng: eng, cfg: cfg}
	d.Host, _ = netstack.NewHost(eng, cfg.IP, cfg.MAC, cfg.MaxThreads, cfg.MemPages, nicsim.Config{}, cfg.Cost.L3Miss)
	return d
}

// Start spawns the elastic threads and their user programs.
func (d *Dataplane) Start() {
	for i := 0; i < d.cfg.Threads; i++ {
		d.spawnThread(i)
	}
	d.NIC().SpreadRETA(len(d.threads))
}

func (d *Dataplane) spawnThread(id int) {
	et := newElasticThread(d, id)
	d.threads = append(d.threads, et)
	d.all = append(d.all, et)
	et.user = d.cfg.User(et.api, id, d.cfg.Threads)
	// Kick once so programs that queued work at construction run.
	et.wake()
}

// Threads returns the active elastic thread count.
func (d *Dataplane) Threads() int { return len(d.threads) }

// Thread returns elastic thread i.
func (d *Dataplane) Thread(i int) *ElasticThread { return d.threads[i] }

// Footprinter is implemented by user programs (libix) that account
// their per-flow state under the memprobe contract.
type Footprinter interface {
	Footprint() memprobe.Footprint
}

// Footprint sums the dataplane's per-connection memory: each elastic
// thread's TCP engine (PCBs, retransmission backing, timer nodes), its
// capability table in the protection gate, and — when the user program
// implements Footprinter — the ring-3 per-flow state (libix
// descriptors and TX arenas), added as a layer over the same
// connection population.
func (d *Dataplane) Footprint() memprobe.Footprint {
	var f memprobe.Footprint
	for _, et := range d.threads {
		f.Add(et.ns.TCP().Footprint())
		f.Bytes += et.gate.FootprintBytes()
		if fp, ok := et.user.(Footprinter); ok {
			f.AddLayer(fp.Footprint())
		}
	}
	return f
}

// missPenalty returns the per-packet LLC-miss stall given the current
// connection working set (Fig. 4's DDIO model), cached until the
// connection count moves by >1%.
func (d *Dataplane) missPenalty() time.Duration {
	conns := d.ConnCount()
	if d.missPenalty_ != 0 && conns > 0 {
		lo := d.missConns - d.missConns/64
		hi := d.missConns + d.missConns/64
		if conns >= lo && conns <= hi {
			return d.missPenalty_
		}
	}
	d.missConns = conns
	d.missPenalty_ = time.Duration(cost.MissesPerMsg(conns) * float64(d.cfg.Cost.L3Miss))
	return d.missPenalty_
}

// AddElasticThread grows the dataplane by one elastic thread (control
// plane grant). The RSS indirection table is repartitioned with minimal
// movement: only the flow groups whose RETA bucket is reassigned to the
// new queue migrate; every other flow stays on its thread untouched.
// Returns an error at the hardware queue limit.
func (d *Dataplane) AddElasticThread() error {
	if len(d.threads) >= d.cfg.MaxThreads {
		return fmt.Errorf("core: no NIC queues left (%d)", d.cfg.MaxThreads)
	}
	id := len(d.threads)
	d.spawnThread(id)
	d.applyRepartition(d.NIC().PlanRepartition(len(d.threads)))
	return nil
}

// RemoveElasticThread revokes the highest elastic thread (control plane
// revocation): each of its flow groups migrates — with its in-flight
// frames and timers — to a surviving thread chosen by the repartition
// plan, and the thread halts. It stays in the dataplane's totals.
//
// Every connection lives on the thread its RSS bucket maps to (a SYN
// arrives on that queue, an active open picks a port to match, and a
// repartition moves connections with their buckets), and the plan moves
// every bucket of the revoked queue. A connection left on the victim
// breaks that invariant: it panics.
func (d *Dataplane) RemoveElasticThread() error {
	if len(d.threads) <= 1 {
		return fmt.Errorf("core: cannot remove the last elastic thread")
	}
	n := len(d.threads) - 1
	victim := d.threads[n]
	d.applyRepartition(d.NIC().PlanRepartition(n))
	if st := victim.ns.TCP(); st.ConnCount() > 0 {
		panic(fmt.Sprintf("core: flow %v is still on revoked thread %d after the repartition", st.Conn(st.Conns()[0]).Key(), victim.id))
	}
	d.threads = d.threads[:n]
	victim.stopped = true
	if victim.idleWake != nil {
		d.eng.Cancel(victim.idleWake)
		victim.idleWake = nil
	}
	return nil
}

// applyRepartition executes a repartition plan: each entry moves one RSS
// flow group (RETA bucket) to another elastic thread. This is the §4.4
// migration mechanism, in four steps at one run-to-completion boundary:
//
//  1. quiesce the source thread — pending event conditions are delivered
//     and batched system calls complete against their original handles;
//  2. repoint the RETA entry, so new arrivals land on the destination;
//  3. drain the flow group's in-flight frames from the source RX ring
//     into the destination ring in arrival order (no reordering, no
//     loss);
//  4. re-home the group's connections: TCP state, pending retransmission
//     and TIME_WAIT timers (original deadlines), protection-domain
//     handles, and an EvMigrated event telling the destination's user
//     program to adopt each flow.
//
// The per-bucket work is amortized: each distinct source thread is
// quiesced once, its RETA entries flip together, its in-flight frames
// drain in one ring pass, and its connection table is scanned once —
// O(sources × (ring + conns)) rather than O(buckets × conns).
func (d *Dataplane) applyRepartition(plan []nicsim.RetaChange) {
	if len(plan) == 0 {
		return
	}
	bySrc := make(map[int][]nicsim.RetaChange)
	for _, ch := range plan {
		bySrc[int(ch.From)] = append(bySrc[int(ch.From)], ch)
	}
	// Iterate sources in thread order, not map order (determinism).
	for srcID := 0; srcID < len(d.threads); srcID++ {
		changes := bySrc[srcID]
		if len(changes) == 0 {
			continue
		}
		src := d.threads[srcID]
		// bucket → destination thread, for this source's moving buckets.
		dstOf := make(map[int]*ElasticThread, len(changes))
		// (1) Quiesce the source once for all its outgoing buckets: the
		// run-to-completion model guarantees no flow state is
		// mid-operation between cycles; finishing the user batch extends
		// that guarantee to the syscall/event arrays.
		src.quiesce()
		// (2) Flip this source's RETA entries together; new arrivals for
		// the moving buckets now land on their destinations.
		for _, ch := range changes {
			dstOf[ch.Bucket] = d.threads[ch.To]
			d.NIC().SetRETAEntry(ch.Bucket, int(ch.To))
		}
		// (3) One ordered pass over the source ring. Frames here belong
		// only to buckets this source owned, and the destination rings
		// cannot yet hold frames of the moving groups (flip and drain
		// share a virtual instant), so tail insertion preserves
		// intra-flow order.
		for _, f := range src.drv.RX.Extract(func(f *fabric.Frame) bool {
			b, ok := d.NIC().FrameBucket(f.Data)
			return ok && dstOf[b] != nil
		}) {
			b, _ := d.NIC().FrameBucket(f.Data)
			dstOf[b].drv.RX.Inject(f)
		}
		// (4) One pass over the source's connections.
		st := src.ns.TCP()
		for _, id := range st.Conns() {
			dst := dstOf[d.NIC().RSSBucket(st.Conn(id).Key().Reverse())]
			if dst == nil {
				continue
			}
			d.moveConn(src, dst, id)
		}
		d.Migrations += uint64(len(changes))
		for _, ch := range changes {
			d.threads[ch.To].wake()
		}
	}
}

// moveConn re-homes one connection from src to dst: TCP state and timers,
// the protection-domain handle, and the user program's adoption event.
func (d *Dataplane) moveConn(src, dst *ElasticThread, id tcp.ConnID) {
	// Re-grant the handle, with the user's cookie, in the destination
	// namespace; the old handle dies with the source thread's namespace.
	old := src.gate.Handle(uint32(id))
	cookie := src.gate.Cookie(old)
	src.gate.Revoke(old)
	id = src.ns.TCP().Migrate(id, dst.ns.TCP())
	h := dst.gate.Grant(uint32(id), cookie)
	// Tell the destination's user program to adopt the flow.
	dst.events = append(dst.events, Event{Type: EvMigrated, Handle: h, Cookie: cookie})
	d.FlowsMigrated++
}

// ResetStats zeroes measurement counters on all threads (start of a
// measurement window).
func (d *Dataplane) ResetStats() {
	for _, et := range d.all {
		et.Cycles = 0
		et.RxPackets = 0
		et.drv.PoolDrops = 0
		et.KernelNs = 0
		et.UserNs = 0
		et.core.ResetStats()
	}
}

// CPUBreakdown reports aggregate kernel and user busy time across
// elastic threads since ResetStats (the §5.5 kernel-time measurement),
// including the time of threads revoked mid-window, so elastic
// revocation loses no busy time.
func (d *Dataplane) CPUBreakdown() (kernel, user time.Duration) {
	for _, et := range d.all {
		kernel += time.Duration(et.KernelNs)
		user += time.Duration(et.UserNs)
	}
	return kernel, user
}

// MeanBatch returns the average adaptive batch size over the window: the
// frames the live threads' cycles took off their RX rings (delivered or
// dropped for want of an mbuf) per cycle.
func (d *Dataplane) MeanBatch() float64 {
	var frames, cycles uint64
	for _, et := range d.threads {
		frames += et.RxPackets + et.drv.PoolDrops
		cycles += et.Cycles
	}
	if cycles == 0 {
		return 0
	}
	return float64(frames) / float64(cycles)
}

// MaxThreads returns the hardware queue-pair budget.
func (d *Dataplane) MaxThreads() int { return d.cfg.MaxThreads }
