package fabric

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ix/internal/sim"
	"ix/internal/wire"
)

// txPort is what the stream-order test drives: a link direction.
type txPort interface {
	Send(f *Frame)
	Busy() sim.Time
}

// perFrameLink is the link direction the per-port stream replaced, kept
// as the oracle: every frame gets its own engine event at Send, so the
// engine runs deliveries in its (time, seq) order by construction.
type perFrameLink struct {
	eng       *sim.Engine
	bps       float64
	latency   time.Duration
	busyUntil sim.Time
	ep        Endpoint
}

func (p *perFrameLink) Send(f *Frame) {
	now := p.eng.Now()
	start := max(now, p.busyUntil)
	p.busyUntil = start.Add(time.Duration(float64(wire.WireLen(len(f.Data))*8) / p.bps * 1e9))
	p.eng.Call(p.busyUntil.Add(p.latency), func(a any) { p.ep.Deliver(a.(*Frame)) }, f)
}

func (p *perFrameLink) Busy() sim.Time { return p.busyUntil }

// logger is an endpoint that logs each arrival.
type logger struct {
	name string
	eng  *sim.Engine
	log  *[]string
}

func (l *logger) Deliver(f *Frame) {
	*l.log = append(*l.log, fmt.Sprintf("%v %s got frame %d", l.eng.Now(), l.name, f.Data[0]))
}

// streamScenario runs a randomized workload over six link directions and
// returns the log of everything that ran: frames sent back to back on
// several links, with Call, At and Cancel events at the very instants
// frames arrive. perFrame selects the oracle links.
func streamScenario(seed int64, perFrame bool) []string {
	const lat = 2 * time.Microsecond
	eng := sim.NewEngine(1)
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var ports []txPort
	for i := 0; i < 3; i++ {
		if perFrame {
			for side := 0; side < 2; side++ {
				ep := &logger{name: fmt.Sprintf("link%d.%d", i, 1-side), eng: eng, log: &log}
				ports = append(ports, &perFrameLink{eng: eng, bps: 10 * Gbps, latency: lat, ep: ep})
			}
			continue
		}
		l := NewLink(eng, 10*Gbps, lat)
		for side := 0; side < 2; side++ {
			l.Port(1 - side).Attach(&logger{name: fmt.Sprintf("link%d.%d", i, 1-side), eng: eng, log: &log})
			ports = append(ports, l.Port(side))
		}
	}
	note := func(a any) { log = append(log, fmt.Sprintf("%v call %d", eng.Now(), a.(int))) }
	type armed struct {
		ev    *sim.Event
		id    int
		fired *bool
	}
	var live []armed
	id := 0
	var drive func(any)
	drive = func(any) {
		now := eng.Now()
		for op := 0; op < 6; op++ {
			id++
			p := ports[rng.Intn(len(ports))]
			// An instant some frame arrives at, when one is in flight.
			collide := now
			if p.Busy() > now {
				collide = p.Busy().Add(lat)
			}
			switch rng.Intn(4) {
			case 0, 1:
				for n := 1 + rng.Intn(4); n > 0; n-- {
					f := NewFrame(make([]byte, 60+rng.Intn(1440)))
					f.Data[0] = byte(id)
					p.Send(f)
				}
			case 2:
				eng.Call(collide, note, id)
			case 3:
				if len(live) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(live))
					if a := live[i]; !*a.fired {
						eng.Cancel(a.ev)
						log = append(log, fmt.Sprintf("%v cancel %d", now, a.id))
					}
					live = slices.Delete(live, i, i+1)
					continue
				}
				fired, at := new(bool), id
				ev := eng.At(collide, func() { *fired = true; note(at) })
				live = append(live, armed{ev, id, fired})
			}
		}
		if now < sim.Time(300*time.Microsecond) {
			eng.Call(now.Add(time.Duration(50+rng.Intn(400))), drive, nil)
		}
	}
	eng.Call(0, drive, nil)
	eng.Run()
	return log
}

// TestLinkStreamOrder: with one engine event per link direction instead
// of one per frame, everything — deliveries on six directions and the
// Call/At/Cancel events placed on their very arrival instants — runs in
// exactly the order per-frame events ran it, which is the engine's
// (time, seq) order of everything scheduled.
func TestLinkStreamOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want := streamScenario(seed, true)
		got := streamScenario(seed, false)
		if len(want) < 1000 {
			t.Fatalf("seed %d: only %d log lines; the scenario exercises too little", seed, len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d, line %d: streamed %q, per-frame %q", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines streamed, %d per-frame", seed, len(got), len(want))
		}
	}
}

// TestZeroAllocLinkStream: once a port's stream backing has grown to its
// backlog, sending and delivering allocates nothing — and a port that is
// never idle (a frame always on the wire) wraps its ring instead of
// growing it.
func TestZeroAllocLinkStream(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 10*Gbps, 2*time.Microsecond)
	l.Port(1).Attach(&releaser{})
	p := l.Port(0)
	pool := NewFramePool()
	send := func() { p.Send(pool.Get(1500)) }
	for i := 0; i < 8; i++ {
		send()
	}
	eng.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 4; i++ {
			send()
		}
		eng.Run()
	}); allocs != 0 {
		t.Fatalf("send/deliver of a burst allocates %.1f, want 0", allocs)
	}
	// Never idle: three frames on the wire, a new one sent as each lands.
	grown := cap(p.stream.buf)
	for i := 0; i < 3; i++ {
		send()
	}
	for i := 0; i < 100_000; i++ {
		eng.Step()
		send()
	}
	if c := cap(p.stream.buf); c != grown {
		t.Fatalf("a never-idle port grew its stream from %d to %d slots", grown, c)
	}
	eng.Run()
	if pool.InUse() != 0 {
		t.Fatalf("%d frames still in use", pool.InUse())
	}
}
