package mutilate

import (
	"bytes"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"ix/internal/apps/memcached"
	"ix/internal/wire"
)

func TestWorkloadShapes(t *testing.T) {
	for i := 0; i < 1000; i++ {
		k := ETC.KeyFor(i)
		if len(k) < ETC.KeyMin || len(k) > ETC.KeyMax {
			t.Fatalf("ETC key %q length %d outside [%d,%d]", k, len(k), ETC.KeyMin, ETC.KeyMax)
		}
		v := ETC.ValFor(i)
		if len(v) < ETC.ValMin || len(v) > ETC.ValMax {
			t.Fatalf("ETC val length %d outside range", len(v))
		}
		uk := USR.KeyFor(i)
		if len(uk) >= 20 {
			t.Fatalf("USR key %q not short", uk)
		}
		if len(USR.ValFor(i)) != 2 {
			t.Fatal("USR values must be 2 bytes")
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	for i := 0; i < 100; i++ {
		if ETC.KeyFor(i) != ETC.KeyFor(i) || string(ETC.ValFor(i)) != string(ETC.ValFor(i)) {
			t.Fatal("workload generation not deterministic")
		}
	}
}

func TestPreload(t *testing.T) {
	st := memcached.NewStore(256 << 20)
	Preload(st, USR)
	if st.Len() != USR.Keys {
		t.Fatalf("preloaded %d keys, want %d", st.Len(), USR.Keys)
	}
}

func TestConsumeResponse(t *testing.T) {
	cases := []struct {
		buf  string
		get  bool
		want int
	}{
		{"STORED\r\n", false, 8},
		{"END\r\n", true, 5},
		{"VALUE key 0 5\r\nhello\r\nEND\r\n", true, 27},
		{"VALUE key 0 5\r\nhel", true, 0}, // incomplete body
		{"VALUE key 0 5\r", true, 0},      // incomplete header
		{"STOR", false, 0},                // incomplete line
		// A count that is negative, not a plain decimal or over the item
		// limit makes the line malformed: it is consumed alone. A negative
		// count used to come back below the line length, or negative.
		{"VALUE key 0 -5\r\nhello\r\nEND\r\n", true, 16},
		{"VALUE key 0 -30\r\n", true, 17},
		{"VALUE key 0 9223372036854775807\r\nhello\r\nEND\r\n", true, 33},
		{"VALUE key 0 5x\r\nhello\r\nEND\r\n", true, 16},
		{"VALUE key 0 1048577\r\n", true, 21},
	}
	for _, c := range cases {
		if got := consumeResponse([]byte(c.buf), c.get); got != c.want {
			t.Errorf("consumeResponse(%q, get=%v) = %d, want %d", c.buf, c.get, got, c.want)
		}
	}
}

// TestConsumeResponseRoundTrip: a rendered GET hit response is consumed
// exactly, for arbitrary values.
func TestConsumeResponseRoundTrip(t *testing.T) {
	f := func(val []byte) bool {
		resp := []byte("VALUE k 0 ")
		resp = append(resp, []byte(itoa(len(val)))...)
		resp = append(resp, '\r', '\n')
		resp = append(resp, val...)
		resp = append(resp, []byte("\r\nEND\r\n")...)
		return consumeResponse(resp, true) == len(resp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// The request builders the load path used to call per request, kept
// verbatim as oracles: oldKeyFor and oldValFor are KeyFor's and ValFor's
// loops, formatGet and formatSet were memcached.FormatGet and FormatSet.
func oldKeyFor(w Workload, i int) string {
	ln := w.KeyMin
	if w.KeyMax > w.KeyMin {
		ln += i % (w.KeyMax - w.KeyMin + 1)
	}
	s := strconv.Itoa(i)
	if len(s) >= ln {
		return s
	}
	b := make([]byte, ln)
	copy(b, s)
	for j := len(s); j < ln; j++ {
		b[j] = 'k'
	}
	return string(b)
}

func oldValFor(w Workload, i int) []byte {
	ln := w.ValMin
	if w.ValMax > w.ValMin {
		// Log-skewed sizes: most values small, a tail of large ones.
		span := w.ValMax - w.ValMin
		x := (i*2654435761 + 12345) & 0xffff
		frac := float64(x) / 65536.0
		frac = frac * frac // square to skew small
		ln += int(frac * float64(span))
	}
	v := make([]byte, ln)
	for j := range v {
		v[j] = byte('a' + (i+j)%26)
	}
	return v
}

func formatGet(key string) []byte {
	return []byte("get " + key + "\r\n")
}

func formatSet(key string, val []byte) []byte {
	b := make([]byte, 0, len(key)+len(val)+32)
	b = append(b, "set "...)
	b = append(b, key...)
	b = append(b, " 0 0 "...)
	b = strconv.AppendInt(b, int64(len(val)), 10)
	b = append(b, "\r\n"...)
	b = append(b, val...)
	b = append(b, "\r\n"...)
	return b
}

// TestRequestBytesMatchOracles: for every key index of ETC and USR (and
// a workload whose indices outgrow its key length and whose values are
// empty), the builders write exactly the bytes the old ones did, after
// whatever the buffer already holds, and ValFor's slice is exact-size.
func TestRequestBytesMatchOracles(t *testing.T) {
	tiny := Workload{Name: "tiny", KeyMin: 2, KeyMax: 2, ValMin: 0, ValMax: 0, Keys: 1200}
	for _, w := range []Workload{ETC, USR, tiny} {
		prefix := []byte("queued")
		var b []byte
		for i := 0; i < w.Keys; i++ {
			key, val := oldKeyFor(w, i), oldValFor(w, i)
			if got := w.KeyFor(i); got != key {
				t.Fatalf("%s KeyFor(%d) = %q, want %q", w.Name, i, got, key)
			}
			if got := w.ValFor(i); !bytes.Equal(got, val) || cap(got) != len(val) {
				t.Fatalf("%s ValFor(%d) = %q (cap %d), want %q", w.Name, i, got, cap(got), val)
			}
			if b = w.appendGet(append(b[:0], prefix...), i); !bytes.Equal(b, append(prefix, formatGet(key)...)) {
				t.Fatalf("%s get %d = %q, want %q", w.Name, i, b, formatGet(key))
			}
			if b = w.appendSet(append(b[:0], prefix...), i); !bytes.Equal(b, append(prefix, formatSet(key, val)...)) {
				t.Fatalf("%s set %d = %q, want %q", w.Name, i, b, formatSet(key, val))
			}
		}
	}
}

// fakeEnv is an app.Env with a settable clock.
type fakeEnv struct{ now int64 }

func (e *fakeEnv) Now() int64                           { return e.now }
func (e *fakeEnv) Charge(time.Duration)                 {}
func (e *fakeEnv) Elapsed() time.Duration               { return 0 }
func (e *fakeEnv) Connect(wire.IPv4, uint16, any) error { return nil }
func (e *fakeEnv) Listen(uint16) error                  { return nil }
func (e *fakeEnv) After(time.Duration, func())          {}

// fakeConn keeps everything sent to it.
type fakeConn struct {
	cookie any
	out    []byte
}

func (c *fakeConn) Send(b []byte) int { c.out = append(c.out, b...); return len(b) }
func (c *fakeConn) Close()            {}
func (c *fakeConn) Abort()            {}
func (c *fakeConn) Cookie() any       { return c.cookie }
func (c *fakeConn) SetCookie(v any)   { c.cookie = v }

// TestZeroAllocLoadgen: once warm, issuing a request and receiving its
// complete reply allocate nothing.
func TestZeroAllocLoadgen(t *testing.T) {
	env := &fakeEnv{}
	g := &loadgen{env: env, rng: 1, cfg: LoadConfig{Workload: ETC, Pipeline: 4, Metrics: NewMetrics()}}
	c := &fakeConn{}
	g.OnConnected(c, true)
	st := c.cookie.(*lconn)
	hit, stored := []byte("VALUE k 0 3\r\nabc\r\nEND\r\n"), []byte("STORED\r\n")
	round := func() {
		c.out = c.out[:0]
		g.issue(c, st)
		env.now += 1000
		if st.q[0].get {
			g.OnRecv(c, hit)
		} else {
			g.OnRecv(c, stored)
		}
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("issue + reply: %v allocs, want 0", allocs)
	}
	if len(st.q) != 0 || st.buf != nil || g.cfg.Metrics.Responses.Since() != 1001 {
		t.Fatalf("after 1001 rounds: %d pending, buf %q, %d responses", len(st.q), st.buf, g.cfg.Metrics.Responses.Since())
	}
}

// TestLoadgenSplitReplies: replies cut at every byte boundary, and
// pipelined replies in one arrival, are matched to their requests in
// order, and no tail is kept once they are all consumed.
func TestLoadgenSplitReplies(t *testing.T) {
	stream := []byte("VALUE k 0 3\r\nabc\r\nEND\r\nSTORED\r\nEND\r\n")
	gets := []bool{true, false, true}
	for cut := 0; cut <= len(stream); cut++ {
		env := &fakeEnv{}
		g := &loadgen{env: env, cfg: LoadConfig{Workload: ETC, Pipeline: 4, Metrics: NewMetrics()}}
		c := &fakeConn{}
		g.OnConnected(c, true)
		st := c.cookie.(*lconn)
		for _, get := range gets {
			st.q = append(st.q, pending{get: get})
		}
		g.OnRecv(c, stream[:cut])
		g.OnRecv(c, stream[cut:])
		if n := g.cfg.Metrics.Responses.Since(); n != uint64(len(gets)) || len(st.q) != 0 || st.buf != nil {
			t.Fatalf("cut at %d: %d responses, %d pending, tail %q", cut, n, len(st.q), st.buf)
		}
	}
}

// FuzzConsumeResponse: on any bytes the consumed length stays within
// the buffer, and every reply the real server renders — a stored value
// of the fuzzed bytes, a hit on it, a miss — is consumed exactly. The
// corpus under testdata/fuzz holds the counts that used to come back
// negative or be misread.
func FuzzConsumeResponse(f *testing.F) {
	f.Add([]byte("VALUE k 0 5\r\nhello\r\nEND\r\n"), true)
	f.Add([]byte("STORED\r\n"), false)
	f.Fuzz(func(t *testing.T, buf []byte, get bool) {
		if n := consumeResponse(buf, get); n < 0 || n > len(buf) {
			t.Fatalf("consumeResponse(%q, get=%v) = %d, outside [0, %d]", buf, get, n, len(buf))
		}
		if len(buf) > memcached.MaxItemSize {
			return
		}
		h := memcached.ServerFactory(memcached.NewStore(4<<20), 11211)(&fakeEnv{}, 0, 1)
		c := &fakeConn{}
		h.OnAccept(c)
		for _, r := range []struct {
			req []byte
			get bool
		}{
			{formatSet("k", buf), false},
			{formatGet("k"), true},
			{formatGet("missing"), true},
		} {
			c.out = c.out[:0]
			h.OnRecv(c, r.req)
			if n := consumeResponse(c.out, r.get); n != len(c.out) {
				t.Fatalf("reply %q to %q: consumed %d of %d", c.out, r.req, n, len(c.out))
			}
		}
	})
}
