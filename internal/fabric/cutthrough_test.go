package fabric

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ix/internal/sim"
	"ix/internal/wire"
)

// eventHopPort is the switch ingress the cut-through send replaced, kept
// as the oracle: it routes with the switch's own tables, then waits out
// SwitchLatency as an engine event of its own before the egress Send.
type eventHopPort struct {
	sw  *Switch
	idx int
}

func (hp eventHopPort) Deliver(f *Frame) {
	s := hp.sw
	var eth wire.EthHeader
	if eth.Unmarshal(f.Data) != nil {
		f.Release()
		return
	}
	out := -1
	if members, ok := s.bonds[eth.Dst]; ok && len(members) > 0 {
		out = members[int(l3l4Hash(f.Data))%len(members)]
	} else if idx, ok := s.fdb[eth.Dst]; ok {
		out = idx
	}
	if out < 0 || out == hp.idx {
		s.Flooded++
		f.Release()
		return
	}
	s.Forwarded++
	port := s.ports[out].port
	s.eng.CallAfter(s.latency, func(a any) { port.Send(a.(*Frame)) }, f)
}

// tcpFrameTo builds an n-byte IPv4/TCP frame between two hosts, tagged
// with id in its payload; the ports spread flows over bond members.
func tcpFrameTo(dst, src wire.MAC, sip, dip wire.IPv4, sport uint16, n, id int) *Frame {
	b := make([]byte, n)
	(&wire.EthHeader{Dst: dst, Src: src, EtherType: wire.EtherTypeIPv4}).Marshal(b)
	ip := wire.IPv4Header{TotalLen: uint16(n - wire.EthHdrLen), TTL: 64, Proto: wire.ProtoTCP, Src: sip, Dst: dip}
	ip.Marshal(b[wire.EthHdrLen:])
	tcp := b[wire.EthHdrLen+wire.IPv4HdrLen:]
	tcp[0], tcp[1] = byte(sport>>8), byte(sport)
	tcp[2], tcp[3] = 0x1f, 0x90
	tcp[4], tcp[5], tcp[6] = byte(id>>16), byte(id>>8), byte(id)
	return NewFrame(b)
}

// switchScenario runs a randomized load through one switch and returns
// every frame arrival at a host, with the egress drop counts. Host 0 is
// bonded over four links; the egress toward hosts 0 and 1 has a shallow
// buffer that tail-drops. eventHop selects the oracle ingress.
func switchScenario(seed int64, eventHop bool) (log []string, drops []uint64) {
	const hosts = 5
	eng := sim.NewEngine(1)
	rng := rand.New(rand.NewSource(seed))
	sw := NewSwitch(eng)
	type host struct {
		mac   wire.MAC
		ip    wire.IPv4
		links []*Link
	}
	var hs []*host
	var egress []*Port
	for i := 0; i < hosts; i++ {
		h := &host{mac: wire.MAC{2, 0, 0, 0, 0, byte(i + 1)}, ip: wire.Addr4(10, 0, 0, byte(i+1))}
		n := 1
		if i == 0 {
			n = 4
		}
		var idxs []int
		for j := 0; j < n; j++ {
			l := NewLink(eng, 10*Gbps, 2*time.Microsecond)
			name := fmt.Sprintf("host%d.%d", i, j)
			l.Port(0).Attach(endpointFunc(func(f *Frame) {
				log = append(log, fmt.Sprintf("%v %s got frame %d", eng.Now(), name,
					int(f.Data[38])<<16|int(f.Data[39])<<8|int(f.Data[40])))
				f.Release()
			}))
			idx := sw.AddPort(l.Port(1))
			if eventHop {
				l.Port(1).Attach(eventHopPort{sw: sw, idx: idx})
			}
			if i < 2 {
				l.Port(1).SetTxBuffer(3000)
			}
			egress = append(egress, l.Port(1))
			idxs = append(idxs, idx)
			h.links = append(h.links, l)
		}
		if n > 1 {
			sw.Bond(h.mac, idxs)
		} else {
			sw.Learn(h.mac, idxs[0])
		}
		hs = append(hs, h)
	}
	id := 0
	var drive func(any)
	drive = func(any) {
		now := eng.Now()
		for op := 0; op < 4; op++ {
			src := hs[rng.Intn(hosts)]
			dst := hs[rng.Intn(hosts)]
			if dst == src {
				continue
			}
			up := src.links[rng.Intn(len(src.links))].Port(0)
			sport := uint16(1000 + rng.Intn(64))
			for n := 1 + rng.Intn(4); n > 0; n-- {
				id++
				up.Send(tcpFrameTo(dst.mac, src.mac, src.ip, dst.ip, sport, 64+rng.Intn(1450), id))
			}
		}
		if now < sim.Time(300*time.Microsecond) {
			eng.Call(now.Add(time.Duration(50+rng.Intn(400))), drive, nil)
		}
	}
	eng.Call(0, drive, nil)
	eng.Run()
	for _, p := range egress {
		drops = append(drops, p.TxDropped)
	}
	return log, drops
}

// TestSwitchCutThroughMatchesEventHop: a switch that makes each egress
// send at arrival, for the instant its latency ends, delivers every frame
// at the same time, in the same order, and tail-drops the same frames as
// the switch that gave every crossing an engine event of its own — with
// bonded egress, shallow egress buffers and frames sent back to back.
func TestSwitchCutThroughMatchesEventHop(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want, wantDrops := switchScenario(seed, true)
		got, gotDrops := switchScenario(seed, false)
		dropped := uint64(0)
		for _, d := range wantDrops {
			dropped += d
		}
		if len(want) < 1000 || dropped == 0 {
			t.Fatalf("seed %d: %d arrivals and %d drops; the scenario exercises too little", seed, len(want), dropped)
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d, arrival %d: cut-through %q, event hop %q", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d arrivals cut-through, %d with the event hop", seed, len(got), len(want))
		}
		for i := range wantDrops {
			if gotDrops[i] != wantDrops[i] {
				t.Fatalf("seed %d: egress port %d dropped %d frames cut-through, %d with the event hop", seed, i, gotDrops[i], wantDrops[i])
			}
		}
	}
}
