package tcp

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// quietStack builds a stack whose clock the test owns.
func quietStack(now *int64, mod func(*Config)) *Stack {
	cfg := Config{
		LocalIP: wire.Addr4(10, 0, 0, 1),
		Now:     func() int64 { return *now },
		Wheel:   timerwheel.New(timerwheel.DefaultTick, 0),
		Output:  func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {},
		Events:  &quietEvents{},
		Seed:    7,
	}
	if mod != nil {
		mod(&cfg)
	}
	return NewStack(cfg)
}

// TestRTTNarrowingExact: the estimator stored as 32-bit nanoseconds
// computes, to the nanosecond, what the time.Duration fields it
// replaced computed — for any sample sequence below the 4 s cap. The
// reference below is the previous implementation verbatim (with the
// timeout capped at maxRTO, where the backoff path always capped it).
func TestRTTNarrowingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		var now int64 = 1
		s := quietStack(&now, nil)
		c := s.newConn(tableKey(seq))
		f := c.borrow(c.stack())
		var srtt, rttvar, rto time.Duration
		// Sample magnitudes from 1 ns to just under 4 s, log-uniform.
		scale := time.Duration(1) << uint(rng.Intn(32))
		for i := 0; i < 64; i++ {
			sample := time.Duration(rng.Int63n(int64(scale))) + 1
			if sample >= maxRTO {
				sample = maxRTO - 1
			}
			if srtt == 0 {
				srtt, rttvar = sample, sample/2
			} else {
				delta := srtt - sample
				if delta < 0 {
					delta = -delta
				}
				rttvar = (3*rttvar + delta) / 4
				srtt = (7*srtt + sample) / 8
			}
			rto = srtt + 4*rttvar
			if rto < s.cfg.MinRTO {
				rto = s.cfg.MinRTO
			}
			if rto > maxRTO {
				rto = maxRTO
			}

			f.rttPending, f.rttSeq, f.rttStart = true, c.sndNxt, now
			now += int64(sample)
			c.updateRTT(c.stack(), c.sndNxt)
			if time.Duration(c.srtt) != srtt || time.Duration(c.rttvar) != rttvar || time.Duration(c.rto) != rto {
				t.Fatalf("seq %d sample %d (%v): stored srtt/rttvar/rto = %d/%d/%d ns, reference %d/%d/%d",
					seq, i, sample, c.srtt, c.rttvar, c.rto, srtt, rttvar, rto)
			}
		}
	}
}

// TestMaxRexmitsFitsCount: the retransmission limit is clamped so that
// the count exceeding it still fits the PCB's byte — a connection with
// a limit past it dies at the 255th timeout instead of wrapping the
// count and retrying forever.
func TestMaxRexmitsFitsCount(t *testing.T) {
	var now int64
	s := quietStack(&now, func(c *Config) { c.MaxRexmits = 1000 })
	c, err := s.Connect(wire.Addr4(10, 0, 0, 2), 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxRexmits; i++ {
		c.onRTO(c.stack())
	}
	if c.state != StateSynSent || int(c.rexmitCount) != maxRexmits {
		t.Fatalf("after %d timeouts: state %v, count %d", maxRexmits, c.state, c.rexmitCount)
	}
	c.onRTO(c.stack())
	if c.state != StateClosed {
		t.Fatalf("after %d timeouts the connection is %v, want it dead", maxRexmits+1, c.state)
	}
}

// TestConnStateSizes pins the PCB's size: an established connection is
// the unit the Fig. 4 population multiplies, so growth here is a
// reviewed decision, not a side effect (DESIGN.md, "Per-connection
// memory budget"). The PCB is one cache line and holds nothing the
// collector would scan: a field with a pointer, slice, map, interface,
// string, channel or function in it would make every arena block a
// scanned object.
func TestConnStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(Conn{}); got > 64 {
		t.Fatalf("tcp.Conn is %d bytes, budget 64", got)
	}
	if f := pointerField(reflect.TypeOf(Conn{}), "Conn"); f != "" {
		t.Fatalf("tcp.Conn field %s holds a pointer", f)
	}
	if got := unsafe.Sizeof(block[[firstBlock - 1]Conn]{}); int(got) != firstBlock*connSize-8 {
		t.Fatalf("a %d-slot block is %d bytes, want %d: 8 short of its size class", firstBlock, got, firstBlock*connSize-8)
	}
	// The flight is charged per connection with something pending and
	// pooled per unit of concurrency: the two timer slots and the
	// reassembly pointer beside the queue and its scalars put it in the
	// 288 B size class.
	if got := unsafe.Sizeof(flight{}); got > 288 {
		t.Fatalf("flight is %d bytes, budget 288", got)
	}
	// A tracked segment's size is part of every connection's footprint
	// while data is in flight (Footprint): naming its backing must not
	// grow it.
	if got := unsafe.Sizeof(txSeg{}); got > 104 {
		t.Fatalf("txSeg is %d bytes, budget 104", got)
	}
}

// pointerField returns the path of the first field in t that holds
// anything the garbage collector scans, or "".
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
		return path
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := pointerField(t.Field(i).Type, path+"."+t.Field(i).Name); f != "" {
				return f
			}
		}
	}
	return ""
}
