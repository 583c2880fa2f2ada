package faults

import (
	"testing"
	"time"

	"ix/internal/fabric"
	"ix/internal/sim"
	"ix/internal/wire"
)

// collector is an endpoint recording delivery order and releasing frames.
type collector struct {
	eng    *sim.Engine
	seqs   []int // sequence tags parsed from the frame payload
	times  []sim.Time
	frames int
}

func (c *collector) Deliver(f *fabric.Frame) {
	c.frames++
	if len(f.Data) >= tcpOff+2 {
		c.seqs = append(c.seqs, int(f.Data[tcpOff])<<8|int(f.Data[tcpOff+1]))
	}
	c.times = append(c.times, c.eng.Now())
	f.Release()
}

const tcpOff = wire.EthHdrLen + wire.IPv4HdrLen

// Wrap interposes an injector in front of an arbitrary endpoint.
func Wrap(eng *sim.Engine, ep fabric.Endpoint, seed uint64) *Injector {
	in := newInjector(eng, seed)
	in.inner = ep
	return in
}

// Flap returns a plan that takes the link down at each start for the
// given outage, repeating every period for n cycles, then leaves it up.
func Flap(start, outage, period time.Duration, n int) Plan {
	var p Plan
	for i := 0; i < n; i++ {
		at := start + time.Duration(i)*period
		p.Steps = append(p.Steps, Step{At: at, Cfg: Config{Down: true}})
		p.Steps = append(p.Steps, Step{At: at + outage, Cfg: Config{}})
	}
	return p
}

// ipFrame builds a minimal IPv4 frame with a 2-byte sequence tag in the
// transport region so corruption targeting stays past the IP header.
func ipFrame(pool *fabric.FramePool, seq int) *fabric.Frame {
	f := pool.Get(tcpOff + 32)
	for i := range f.Data {
		f.Data[i] = 0
	}
	f.Data[12] = byte(wire.EtherTypeIPv4 >> 8)
	f.Data[13] = byte(wire.EtherTypeIPv4 & 0xff)
	f.Data[tcpOff] = byte(seq >> 8)
	f.Data[tcpOff+1] = byte(seq)
	return f
}

func feed(eng *sim.Engine, in *Injector, pool *fabric.FramePool, n int) {
	for i := 0; i < n; i++ {
		in.Deliver(ipFrame(pool, i))
	}
	eng.Run()
}

func TestBernoulliLossRateAndNoLeak(t *testing.T) {
	eng := sim.NewEngine(1)
	rx := &collector{eng: eng}
	in := Wrap(eng, rx, 7)
	in.Apply(Config{LossP: 0.3})
	pool := fabric.NewFramePool()
	const n = 10000
	feed(eng, in, pool, n)
	st := in.stats
	if st.Dropped+st.Delivered != n {
		t.Fatalf("dropped %d + delivered %d != %d", st.Dropped, st.Delivered, n)
	}
	rate := float64(st.Dropped) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("loss rate %.3f, want ~0.30", rate)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d frames leaked", pool.InUse())
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	eng := sim.NewEngine(1)
	rx := &collector{eng: eng}
	in := Wrap(eng, rx, 11)
	in.Apply(Config{GE: GELoss(0.05)})
	pool := fabric.NewFramePool()
	const n = 60000
	// Track drop runs to verify burstiness (mean run length > Bernoulli's).
	drops := 0
	runs, runLen := 0, 0
	var lens []int
	for i := 0; i < n; i++ {
		before := in.stats.Dropped
		in.Deliver(ipFrame(pool, i))
		if in.stats.Dropped > before {
			drops++
			runLen++
		} else if runLen > 0 {
			runs++
			lens = append(lens, runLen)
			runLen = 0
		}
	}
	eng.Run()
	rate := float64(drops) / n
	if rate < 0.035 || rate > 0.065 {
		t.Fatalf("GE loss rate %.3f, want ~0.05", rate)
	}
	mean := 0.0
	for _, l := range lens {
		mean += float64(l)
	}
	mean /= float64(runs)
	// A Bernoulli channel at 5% has mean run length ~1.05; the bursty
	// channel's runs are much longer.
	if mean < 1.5 {
		t.Fatalf("mean drop-run length %.2f — not bursty", mean)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d frames leaked", pool.InUse())
	}
}

func TestDuplicationCopiesFrames(t *testing.T) {
	eng := sim.NewEngine(1)
	rx := &collector{eng: eng}
	in := Wrap(eng, rx, 3)
	in.Apply(Config{DupP: 1.0})
	pool := fabric.NewFramePool()
	feed(eng, in, pool, 4)
	if rx.frames != 8 {
		t.Fatalf("delivered %d frames, want 8 (every frame doubled)", rx.frames)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d frames leaked (duplicate released a pooled frame twice?)", pool.InUse())
	}
	// Duplicates carry the same sequence tags as their originals.
	counts := map[int]int{}
	for _, s := range rx.seqs {
		counts[s]++
	}
	for s, c := range counts {
		if c != 2 {
			t.Fatalf("seq %d delivered %d times, want 2", s, c)
		}
	}
}

func TestCorruptionFlipsTransportBits(t *testing.T) {
	eng := sim.NewEngine(1)
	var got []byte
	rx := endpointFunc(func(f *fabric.Frame) {
		got = append([]byte(nil), f.Data...)
		f.Release()
	})
	in := Wrap(eng, rx, 5)
	in.Apply(Config{CorruptP: 1.0})
	pool := fabric.NewFramePool()
	orig := ipFrame(pool, 1)
	want := append([]byte(nil), orig.Data...)
	in.Deliver(orig)
	eng.Run()
	if in.stats.Corrupted != 1 {
		t.Fatalf("corrupted = %d, want 1", in.stats.Corrupted)
	}
	diff, diffAt := 0, -1
	for i := range got {
		if got[i] != want[i] {
			diff++
			diffAt = i
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	if diffAt < tcpOff {
		t.Fatalf("corruption at offset %d — inside L2/L3 headers", diffAt)
	}
	// Non-IPv4 frames (ARP) are never touched.
	arp := pool.Get(42)
	for i := range arp.Data {
		arp.Data[i] = 0xaa
	}
	in.Deliver(arp)
	eng.Run()
	if in.stats.Corrupted != 1 {
		t.Fatal("non-IPv4 frame was corrupted")
	}
}

// TestCorruptionOwnsCarriedPayload: a frame carrying its payload by
// reference is corrupted over its whole transport region, as a frame
// holding its payload is — the RNG draws over the same length, and most
// flips land in the payload — but in a copy the frame takes first: the
// sender's bytes never change, and the frame's pin is dropped.
func TestCorruptionOwnsCarriedPayload(t *testing.T) {
	eng := sim.NewEngine(1)
	var got *fabric.Frame
	rx := endpointFunc(func(f *fabric.Frame) { got = f })
	in := Wrap(eng, rx, 5)
	in.Apply(Config{CorruptP: 1.0})
	pool := fabric.NewFramePool()
	payload := make([]byte, 1000)
	inPayload := 0
	for i := 0; i < 20; i++ {
		f := ipFrame(pool, i)
		want := append(append([]byte(nil), f.Data...), payload...)
		var back pinCount
		f.Carry(payload, &back)
		in.Deliver(f)
		if got.Payload != nil || back.n != 0 {
			t.Fatalf("frame %d: corrupted while still carrying the sender's bytes (%d pins)", i, back.n)
		}
		diff := 0
		for j := range want {
			if got.Data[j] != want[j] {
				diff++
				if j >= len(want)-len(payload) {
					inPayload++
				}
			}
		}
		if len(got.Data) != len(want) || diff != 1 {
			t.Fatalf("frame %d: %d bytes, %d differ; want %d and 1", i, len(got.Data), diff, len(want))
		}
		got.Release()
	}
	if inPayload == 0 {
		t.Fatal("no flip landed in the carried payload: the frame was corrupted over its headers only")
	}
	for _, b := range payload {
		if b != 0 {
			t.Fatal("corruption reached the sender's bytes")
		}
	}
}

type endpointFunc func(*fabric.Frame)

func (fn endpointFunc) Deliver(f *fabric.Frame) { fn(f) }

func TestJitterReorders(t *testing.T) {
	eng := sim.NewEngine(1)
	rx := &collector{eng: eng}
	in := Wrap(eng, rx, 9)
	in.Apply(Config{JitterP: 0.5, Jitter: 50 * time.Microsecond})
	pool := fabric.NewFramePool()
	const n = 200
	for i := 0; i < n; i++ {
		in.Deliver(ipFrame(pool, i))
		eng.RunFor(time.Microsecond) // spread arrivals so delays overtake
	}
	eng.Run()
	if rx.frames != n {
		t.Fatalf("delivered %d frames, want %d (jitter must not drop)", rx.frames, n)
	}
	inversions := 0
	for i := 1; i < len(rx.seqs); i++ {
		if rx.seqs[i] < rx.seqs[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("jitter produced no reordering")
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d frames leaked", pool.InUse())
	}
}

func TestDownDropsEverythingAndHeals(t *testing.T) {
	eng := sim.NewEngine(1)
	rx := &collector{eng: eng}
	in := Wrap(eng, rx, 1)
	in.Apply(Config{Down: true})
	pool := fabric.NewFramePool()
	feed(eng, in, pool, 10)
	if rx.frames != 0 {
		t.Fatalf("%d frames crossed a down link", rx.frames)
	}
	in.Apply(Config{})
	feed(eng, in, pool, 10)
	if rx.frames != 10 {
		t.Fatalf("healed link delivered %d, want 10", rx.frames)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d frames leaked", pool.InUse())
	}
}

func TestPlanScheduleAppliesSteps(t *testing.T) {
	eng := sim.NewEngine(1)
	rx := &collector{eng: eng}
	in := Wrap(eng, rx, 1)
	in.Schedule(Flap(100*time.Microsecond, 50*time.Microsecond, 200*time.Microsecond, 2))
	pool := fabric.NewFramePool()
	// One frame every 10µs for 500µs: outages at [100,150) and [300,350).
	for i := 0; i < 50; i++ {
		eng.RunUntil(sim.Time(i * 10_000))
		in.Deliver(ipFrame(pool, i))
	}
	eng.Run()
	if in.stats.Dropped != 10 {
		t.Fatalf("dropped %d frames, want 10 (two 50µs outages)", in.stats.Dropped)
	}
	if rx.frames != 40 {
		t.Fatalf("delivered %d, want 40", rx.frames)
	}
}

// TestDeterministicSchedule: identical seeds make identical decisions;
// different seeds diverge.
func TestDeterministicSchedule(t *testing.T) {
	run := func(seed uint64) []int {
		eng := sim.NewEngine(1)
		rx := &collector{eng: eng}
		in := Wrap(eng, rx, seed)
		in.Apply(Config{GE: GELoss(0.10), DupP: 0.05, CorruptP: 0.02,
			JitterP: 0.1, Jitter: 20 * time.Microsecond})
		pool := fabric.NewFramePool()
		for i := 0; i < 2000; i++ {
			in.Deliver(ipFrame(pool, i))
			eng.RunFor(500 * time.Nanosecond)
		}
		eng.Run()
		if pool.InUse() != 0 {
			t.Fatalf("%d frames leaked", pool.InUse())
		}
		return append([]int(nil), rx.seqs...)
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}
