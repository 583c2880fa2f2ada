// Package faults is the deterministic link-impairment layer: it
// interposes on fabric frame delivery (via Port.Interpose) and applies
// configurable impairments — Bernoulli and Gilbert–Elliott burst loss,
// duplication, reordering via jitter, payload corruption (caught by the
// RFC 1071 checksum at the receiving stack), and link down/flap — to
// every frame crossing the wrapped direction of a link.
//
// Determinism contract: every random decision comes from the injector's
// own seeded PRNG, consulted in frame-delivery order, which the engine's
// stable (time, sequence) event order makes reproducible; a fixed seed
// therefore yields a byte-identical fault schedule and byte-identical
// experiment output. An attached injector with no active impairment
// draws nothing from the PRNG and adds zero allocations per frame
// (TestZeroAllocFaultFreePath), so instrumented and bare topologies
// behave identically until a fault is configured.
//
// Frame-ownership rules (the moral contract with fabric.FramePool):
//
//   - pass-through and delayed frames are delivered exactly once, so
//     the downstream endpoint releases them as usual;
//   - dropped frames are released by the injector (it is the consumer,
//     like a full NIC ring);
//   - duplicates are fresh unpooled frames carrying a copy of the
//     bytes — the original's buffer is never aliased, so its recycling
//     is unaffected;
//   - corruption mutates bytes in place on a frame the injector is
//     about to deliver and still owns; pooled buffers are rewritten in
//     full by the next sender, so no corruption outlives the frame.
//
// Both writers obey the sealed-frame rule (fabric.Frame): an intact
// frame's offloaded checksum is materialized before its bytes are copied
// or flipped. A corrupted frame is no longer intact, and a duplicate is a
// plain frame, so the receiver verifies both.
package faults

import (
	"math/rand"
	"time"

	"ix/internal/fabric"
	"ix/internal/sim"
	"ix/internal/wire"
)

// GE parameterizes a Gilbert–Elliott two-state burst-loss channel: the
// chain moves Good→Bad with probability PGoodBad per frame and Bad→Good
// with PBadGood; frames drop with probability LossGood in the good state
// and LossBad in the bad state. The stationary loss rate is
// LossBad·PGoodBad/(PGoodBad+PBadGood) (+ the LossGood term).
type GE struct {
	PGoodBad, PBadGood float64
	LossGood, LossBad  float64
}

// GELoss returns a bursty channel with the given average loss rate:
// bursts drop 75% of frames and last ~5 frames on average.
func GELoss(avg float64) *GE {
	const lossBad, pBadGood = 0.75, 0.2
	// avg = lossBad * pB, pB = pgb/(pgb+pbg)  →  pgb solved below.
	pB := avg / lossBad
	pgb := pB * pBadGood / (1 - pB)
	return &GE{PGoodBad: pgb, PBadGood: pBadGood, LossBad: lossBad}
}

// Config is one impairment setting for one direction of a link. The zero
// value is a clean wire.
type Config struct {
	// LossP drops each frame independently (Bernoulli).
	LossP float64
	// GE, when set, drives burst loss instead of (in addition to) LossP.
	GE *GE
	// DupP delivers an extra copy of the frame (a fresh unpooled frame
	// carrying copied bytes).
	DupP float64
	// CorruptP flips one bit in the frame's transport bytes; the
	// receiving stack's RFC 1071 checksum verification drops the
	// segment and counts BadChecksums.
	CorruptP float64
	// JitterP delays a frame by a uniform [0, Jitter] extra latency,
	// letting later frames overtake it (reordering).
	JitterP float64
	Jitter  time.Duration
	// Down drops everything: link failure / switch-port partition.
	Down bool
}

// active reports whether the config impairs anything.
func (c *Config) active() bool {
	return c.Down || c.LossP > 0 || c.GE != nil || c.DupP > 0 || c.CorruptP > 0 ||
		(c.JitterP > 0 && c.Jitter > 0)
}

// Stats counts impairment decisions.
type Stats struct {
	Delivered uint64 // frames passed through (possibly corrupted/delayed)
	Dropped   uint64 // loss + down drops
	Duplicated,
	Corrupted,
	Delayed uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Delivered += o.Delivered
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Corrupted += o.Corrupted
	s.Delayed += o.Delayed
}

// Injector impairs one direction of one link. It implements
// fabric.Endpoint and wraps the endpoint previously attached to a port.
type Injector struct {
	eng   *sim.Engine
	rng   *rand.Rand
	inner fabric.Endpoint

	cfg    Config
	on     bool // cfg.active(), cached for the per-frame fast path
	geBad  bool // Gilbert–Elliott channel state
	stats  Stats
	heldFn func(any) // bound deliverHeld (method values allocate per use)
}

// Interpose attaches a new injector in front of the port's endpoint and
// returns it. The injector starts clean (pass-through).
func Interpose(eng *sim.Engine, p *fabric.Port, seed uint64) *Injector {
	in := newInjector(eng, seed)
	p.Interpose(func(ep fabric.Endpoint) fabric.Endpoint {
		in.inner = ep
		return in
	})
	return in
}

func newInjector(eng *sim.Engine, seed uint64) *Injector {
	// Splitmix-style scramble so adjacent caller seeds (host i, host
	// i+1) land in unrelated stream positions.
	seed = (seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	in := &Injector{eng: eng, rng: rand.New(rand.NewSource(int64(seed)))}
	in.heldFn = in.deliverHeld
	return in
}

// Apply replaces the active impairment. The Gilbert–Elliott channel
// state resets to good.
func (in *Injector) Apply(cfg Config) {
	in.cfg = cfg
	in.on = cfg.active()
	in.geBad = false
}

// Deliver implements fabric.Endpoint. With no impairment configured this
// is a tail call into the wrapped endpoint: no branch draws from the
// PRNG and nothing allocates.
//
//ix:hotpath
func (in *Injector) Deliver(f *fabric.Frame) {
	if !in.on {
		in.inner.Deliver(f)
		return
	}
	in.impair(f)
}

// impair runs the configured impairments in order: down, loss, corrupt,
// duplicate, jitter.
func (in *Injector) impair(f *fabric.Frame) {
	cfg := &in.cfg
	if cfg.Down {
		in.stats.Dropped++
		f.Release()
		return
	}
	if ge := cfg.GE; ge != nil {
		// Advance the channel, then draw the state's loss probability.
		if in.geBad {
			if in.rng.Float64() < ge.PBadGood {
				in.geBad = false
			}
		} else if in.rng.Float64() < ge.PGoodBad {
			in.geBad = true
		}
		p := ge.LossGood
		if in.geBad {
			p = ge.LossBad
		}
		if p > 0 && in.rng.Float64() < p {
			in.stats.Dropped++
			f.Release()
			return
		}
	}
	if cfg.LossP > 0 && in.rng.Float64() < cfg.LossP {
		in.stats.Dropped++
		f.Release()
		return
	}
	if cfg.CorruptP > 0 && in.rng.Float64() < cfg.CorruptP {
		if in.corrupt(f) {
			in.stats.Corrupted++
		}
	}
	if cfg.DupP > 0 && in.rng.Float64() < cfg.DupP {
		// The duplicate is an unpooled copy so the original's pooled
		// buffer, and the sender memory it may carry, is never aliased; it
		// trails the original by nothing (same instant, later sequence
		// number).
		f.MaterializeChecksum()
		dup := fabric.NewFrame(f.AppendBytes(nil))
		in.stats.Duplicated++
		in.eng.Call(in.eng.Now(), in.heldFn, dup)
	}
	if cfg.JitterP > 0 && cfg.Jitter > 0 && in.rng.Float64() < cfg.JitterP {
		d := time.Duration(in.rng.Int63n(int64(cfg.Jitter)) + 1)
		in.stats.Delayed++
		in.eng.Call(in.eng.Now().Add(d), in.heldFn, f)
		return
	}
	in.stats.Delivered++
	in.inner.Deliver(f)
}

// deliverHeld is the trampoline for delayed frames and duplicates. It
// bypasses the impairment pipeline: a held frame already paid its tolls.
func (in *Injector) deliverHeld(a any) {
	in.stats.Delivered++
	in.inner.Deliver(a.(*fabric.Frame))
}

// corrupt flips one bit in the frame's transport region (past the IP
// header, so L2/L3 routing and classification still work and the damage
// is caught by the transport checksum). Non-IPv4 frames — ARP, whose
// replicated broadcast payloads are aliased across frames — are left
// alone; reports whether a bit was flipped. A payload carried by
// reference is taken into the frame first: the flip damages this frame,
// never the sender's bytes, which a retransmission sends again.
func (in *Injector) corrupt(f *fabric.Frame) bool {
	const hdr = wire.EthHdrLen + wire.IPv4HdrLen
	f.Own()
	d := f.Data
	if len(d) <= hdr+1 || uint16(d[12])<<8|uint16(d[13]) != wire.EtherTypeIPv4 {
		return false
	}
	f.MaterializeChecksum()
	i := hdr + in.rng.Intn(len(d)-hdr)
	d[i] ^= 1 << uint(in.rng.Intn(8))
	f.Intact = false
	return true
}

// A Step is one timeline entry of a Plan: at At (measured from the
// moment the plan is scheduled), the direction's impairment becomes Cfg.
type Step struct {
	At  time.Duration
	Cfg Config
}

// A Plan is a deterministic impairment timeline. Steps apply in order;
// the last step's config persists until replaced.
type Plan struct {
	Steps []Step
}

// Schedule arms the plan's steps on the engine relative to now.
func (in *Injector) Schedule(p Plan) {
	for _, st := range p.Steps {
		cfg := st.Cfg
		in.eng.After(st.At, func() { in.Apply(cfg) })
	}
}

// A Site groups the injectors of one host's links (both directions of
// every cable) so a whole machine can be impaired or partitioned with
// one call — the harness-level attachment point (cluster.Faults).
type Site struct {
	Injectors []*Injector
}

// Apply sets every direction's impairment.
func (s *Site) Apply(cfg Config) {
	for _, in := range s.Injectors {
		in.Apply(cfg)
	}
}

// Schedule arms a plan on every direction.
func (s *Site) Schedule(p Plan) {
	for _, in := range s.Injectors {
		in.Schedule(p)
	}
}

// Heal clears all impairments.
func (s *Site) Heal() { s.Apply(Config{}) }

// Stats aggregates over all directions.
func (s *Site) Stats() Stats {
	var out Stats
	for _, in := range s.Injectors {
		out.Add(in.stats)
	}
	return out
}
