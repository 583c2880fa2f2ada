package memcached

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"ix/internal/app"
	"ix/internal/wire"
)

// fakeEnv satisfies app.Env for direct protocol tests.
type fakeEnv struct {
	now     int64
	charged time.Duration
}

func (f *fakeEnv) Now() int64                           { return f.now }
func (f *fakeEnv) Charge(d time.Duration)               { f.charged += d }
func (f *fakeEnv) Elapsed() time.Duration               { return f.charged }
func (f *fakeEnv) Connect(wire.IPv4, uint16, any) error { return nil }
func (f *fakeEnv) Listen(uint16) error                  { return nil }
func (f *fakeEnv) After(time.Duration, func())          {}

// fakeConn records sends.
type fakeConn struct {
	cookie any
	out    []byte
	closed bool
}

func (c *fakeConn) Send(b []byte) int { c.out = append(c.out, b...); return len(b) }
func (c *fakeConn) Close()            { c.closed = true }
func (c *fakeConn) Abort()            { c.closed = true }
func (c *fakeConn) Cookie() any       { return c.cookie }
func (c *fakeConn) SetCookie(v any)   { c.cookie = v }

func newServer(t *testing.T) (*server, *fakeEnv) {
	env := &fakeEnv{}
	st := NewStore(1 << 20)
	return &server{env: env, store: st}, env
}

func feed(s *server, c *fakeConn, data string) {
	s.OnRecv(c, []byte(data))
}

func TestSetGet(t *testing.T) {
	s, _ := newServer(t)
	c := &fakeConn{}
	s.OnAccept(c)
	feed(s, c, "set foo 0 0 5\r\nhello\r\n")
	if string(c.out) != "STORED\r\n" {
		t.Fatalf("set response %q", c.out)
	}
	c.out = nil
	feed(s, c, "get foo\r\n")
	if string(c.out) != "VALUE foo 0 5\r\nhello\r\nEND\r\n" {
		t.Fatalf("get response %q", c.out)
	}
	c.out = nil
	feed(s, c, "get missing\r\n")
	if string(c.out) != "END\r\n" {
		t.Fatalf("miss response %q", c.out)
	}
	if s.store.Hits != 1 || s.store.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", s.store.Hits, s.store.Misses)
	}
}

// TestFragmentedRequests: commands arriving byte by byte parse correctly.
func TestFragmentedRequests(t *testing.T) {
	s, _ := newServer(t)
	c := &fakeConn{}
	s.OnAccept(c)
	msg := "set k 0 0 3\r\nabc\r\nget k\r\n"
	for i := 0; i < len(msg); i++ {
		feed(s, c, msg[i:i+1])
	}
	if !strings.HasSuffix(string(c.out), "VALUE k 0 3\r\nabc\r\nEND\r\n") {
		t.Fatalf("responses %q", c.out)
	}
}

// TestPipelinedRequests: multiple commands in one segment all answer.
func TestPipelinedRequests(t *testing.T) {
	s, _ := newServer(t)
	c := &fakeConn{}
	s.OnAccept(c)
	feed(s, c, "set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\nget a\r\nget b\r\n")
	want := "STORED\r\nSTORED\r\nVALUE a 0 1\r\nx\r\nEND\r\nVALUE b 0 1\r\ny\r\nEND\r\n"
	if string(c.out) != want {
		t.Fatalf("got %q\nwant %q", c.out, want)
	}
}

func TestBadCommands(t *testing.T) {
	s, _ := newServer(t)
	c := &fakeConn{}
	s.OnAccept(c)
	feed(s, c, "bogus nonsense\r\n")
	if string(c.out) != "ERROR\r\n" {
		t.Fatalf("response %q", c.out)
	}
	c.out = nil
	feed(s, c, "set broken zz\r\n")
	if !strings.HasPrefix(string(c.out), "CLIENT_ERROR") {
		t.Fatalf("response %q", c.out)
	}
	feed(s, c, "quit\r\n")
	if !c.closed {
		t.Fatal("quit did not close")
	}
}

func TestLRUEviction(t *testing.T) {
	st := NewStore(1000)
	for i := 0; i < 100; i++ {
		st.set(fmt.Sprintf("key%02d", i), make([]byte, 50))
	}
	if st.bytes > 1000 {
		t.Fatalf("bytes %d exceed cap", st.bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions")
	}
	// The most recent keys survive.
	if _, ok := st.get([]byte("key99")); !ok {
		t.Fatal("most recent key evicted")
	}
	if _, ok := st.get([]byte("key00")); ok {
		t.Fatal("oldest key survived")
	}
}

func TestLRUTouchOnGet(t *testing.T) {
	st := NewStore(150)
	st.set("a", make([]byte, 60))
	st.set("b", make([]byte, 60))
	st.get([]byte("a")) // touch a so b is now oldest
	st.set("c", make([]byte, 60))
	if _, ok := st.get([]byte("a")); !ok {
		t.Fatal("touched key evicted")
	}
	if _, ok := st.get([]byte("b")); ok {
		t.Fatal("LRU order ignored touch")
	}
}

func TestLockContentionModel(t *testing.T) {
	st := NewStore(1 << 20)
	st.Contenders = 4
	// Saturate the window with demand, then check queueing kicks in.
	var total time.Duration
	now := int64(0)
	for i := 0; i < 2000; i++ {
		total += st.lock(now, lockHoldSet)
		now += int64(600 * time.Nanosecond) // near-saturation arrival rate
	}
	if st.LockSpin == 0 {
		t.Fatal("no contention under saturating write load")
	}
	// Low demand: spin stays near the coherence floor.
	st2 := NewStore(1 << 20)
	st2.Contenders = 4
	now = 0
	st2.lastUtil = 0
	var low time.Duration
	for i := 0; i < 100; i++ {
		low += st2.lock(now, lockHoldGet)
		now += int64(100 * time.Microsecond)
	}
	if low/100 > 2*time.Microsecond {
		t.Fatalf("uncontended lock cost too high: %v", low/100)
	}
	_ = total
	_ = app.Env(nil)
}

// TestSetRejectsBadCounts: a set whose fields are not plain decimals, or
// whose byte count is over the item limit, is answered CLIENT_ERROR and
// only its line is consumed, so the body that follows reads as a command
// of its own. A negative or huge count used to panic on a slice bound,
// and "5x" was read as 5.
func TestSetRejectsBadCounts(t *testing.T) {
	const rejected = "CLIENT_ERROR bad command line\r\nERROR\r\n"
	for _, in := range []string{
		"set k 0 0 -5\r\nhello\r\n",
		"set k 0 0 9223372036854775807\r\nhello\r\n",
		"set k 0 0 5x\r\nhello\r\n",
		"set k 0 0 1048577\r\nhello\r\n",
		"set k 0 0 +5\r\nhello\r\n",
		"set k -1 0 5\r\nhello\r\n",
		"set k 0 4294967296 5\r\nhello\r\n",
		"set k 0 0 5 noreply\r\nhello\r\n",
		"set k 0 0\r\nhello\r\n",
	} {
		s, _ := newServer(t)
		c := &fakeConn{}
		s.OnAccept(c)
		feed(s, c, in)
		if string(c.out) != rejected || s.store.Len() != 0 {
			t.Errorf("%q → %q with %d items stored, want %q and none", in, c.out, s.store.Len(), rejected)
		}
	}
}

// TestSetAtItemLimit: a value of exactly MaxItemSize bytes, and fields
// at the edge of their ranges, are accepted.
func TestSetAtItemLimit(t *testing.T) {
	s := &server{env: &fakeEnv{}, store: NewStore(4 << 20)}
	c := &fakeConn{}
	s.OnAccept(c)
	val := bytes.Repeat([]byte{'v'}, MaxItemSize)
	feed(s, c, "set  big   4294967295 0 1048576 \r\n"+string(val)+"\r\nget big\r\n")
	want := "STORED\r\nVALUE big 0 1048576\r\n" + string(val) + "\r\nEND\r\n"
	if string(c.out) != want {
		t.Fatalf("got %d bytes of reply, want %d", len(c.out), len(want))
	}
}

// TestSetCopyReplacesInPlace: a replacing set reuses the item's value
// backing when the new value fits and takes a fresh one when it does
// not; the store's byte count follows both.
func TestSetCopyReplacesInPlace(t *testing.T) {
	st := NewStore(1 << 20)
	st.SetDirect("key", []byte("abcdef"))
	backing := &st.items["key"].value[0]
	for _, v := range []string{"xyz", "abcdef", "a longer value"} {
		st.setCopy([]byte("key"), []byte(v))
		got, ok := st.get([]byte("key"))
		if !ok || string(got) != v || st.bytes != len("key")+len(v) {
			t.Fatalf("after set %q: get = %q, %v; Bytes = %d", v, got, ok, st.bytes)
		}
		if inPlace := &got[0] == backing; inPlace != (len(v) <= 6) {
			t.Fatalf("set %q: in place = %v", v, inPlace)
		}
	}
	if st.Sets != 4 || st.Len() != 1 {
		t.Fatalf("Sets = %d, Len = %d", st.Sets, st.Len())
	}
}

// TestZeroAllocMemcachedServe: once warm, a GET hit, a GET miss and a
// SET replacing a preloaded key allocate nothing.
func TestZeroAllocMemcachedServe(t *testing.T) {
	s, _ := newServer(t)
	s.store.SetDirect("foo", []byte("hello"))
	c := &fakeConn{}
	s.OnAccept(c)
	hit, miss, set := []byte("get foo\r\n"), []byte("get bar\r\n"), []byte("set foo 0 0 5\r\nworld\r\n")
	allocs := testing.AllocsPerRun(1000, func() {
		c.out = c.out[:0]
		s.OnRecv(c, hit)
		s.OnRecv(c, miss)
		s.OnRecv(c, set)
	})
	if allocs != 0 {
		t.Fatalf("serving get hit + get miss + set: %v allocs, want 0", allocs)
	}
	if want := "VALUE foo 0 5\r\nworld\r\nEND\r\nEND\r\nSTORED\r\n"; string(c.out) != want {
		t.Fatalf("replies %q, want %q", c.out, want)
	}
}

// FuzzMemcachedCommand feeds arbitrary bytes to a server. It never
// panics and answers only in whole protocol replies; a set it accepts
// reads back through get; and on well-formed set lines the byte parser
// agrees with the fmt.Sscanf line it replaced. The corpus under
// testdata/fuzz holds the counts that used to panic or be misread.
func FuzzMemcachedCommand(f *testing.F) {
	f.Add([]byte("set k 0 0 5\r\nhello\r\nget k\r\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		s, _ := newServer(t)
		c := &fakeConn{}
		s.OnAccept(c)
		s.OnRecv(c, in)
		splitReplies(t, c.out)

		nl := bytes.Index(in, []byte("\r\n"))
		if nl < 0 || !bytes.HasPrefix(in, []byte("set ")) {
			return
		}
		line := in[:nl]
		key, nbytes, ok := parseSet(line[4:])
		if wellFormedSet(line) {
			oKey, oBytes, err := sscanfSet(string(line))
			if err != nil || !ok || oKey != string(key) || oBytes != nbytes {
				t.Fatalf("%q: parseSet = (%q, %d, %v), Sscanf = (%q, %d, %v)", line, key, nbytes, ok, oKey, oBytes, err)
			}
		}
		end := nl + 2 + nbytes
		if !ok || len(in) < end+2 {
			return
		}
		// The set alone, then a get, on a fresh server.
		s, _ = newServer(t)
		c = &fakeConn{}
		s.OnAccept(c)
		s.OnRecv(c, in[:end+2])
		s.OnRecv(c, append(append([]byte("get "), key...), "\r\n"...))
		want := "STORED\r\n" + fmt.Sprintf("VALUE %s 0 %d\r\n", key, nbytes) + string(in[nl+2:end]) + "\r\nEND\r\n"
		if string(c.out) != want {
			t.Fatalf("%q then get: %q, want %q", in[:end+2], c.out, want)
		}
	})
}

// sscanfSet is the set-line parser the server used to run, kept
// verbatim as the oracle.
func sscanfSet(line string) (key string, nbytes int, err error) {
	var flags, exp int
	_, err = fmt.Sscanf(line[4:], "%s %d %d %d", &key, &flags, &exp, &nbytes)
	return key, nbytes, err
}

// wellFormedSet reports whether line is `set <key> <flags> <exptime>
// <bytes>` with single spaces, a printable-ASCII key and numbers of one
// to seven plain digits, the count within the item limit: the lines on
// which both parsers must agree.
func wellFormedSet(line []byte) bool {
	f := strings.Split(string(line), " ")
	if len(f) != 5 || f[0] != "set" || f[1] == "" {
		return false
	}
	for _, c := range []byte(f[1]) {
		if c <= ' ' || c > '~' {
			return false
		}
	}
	for _, num := range f[2:] {
		if len(num) == 0 || len(num) > 7 || strings.Trim(num, "0123456789") != "" {
			return false
		}
	}
	n, _ := strconv.Atoi(f[4])
	return n <= MaxItemSize
}

// splitReplies cuts a server's output into protocol replies, failing on
// any byte that is not part of a whole one.
func splitReplies(t *testing.T, out []byte) []string {
	var replies []string
	for len(out) > 0 {
		n := replyLen(out)
		if n == 0 {
			t.Fatalf("%q does not start with a protocol reply", out)
		}
		replies = append(replies, string(out[:n]))
		out = out[n:]
	}
	return replies
}

// replyLen is the length of the whole reply at the front of b, or 0.
func replyLen(b []byte) int {
	for _, r := range []string{"STORED\r\n", "END\r\n", "ERROR\r\n", "CLIENT_ERROR bad command line\r\n"} {
		if bytes.HasPrefix(b, []byte(r)) {
			return len(r)
		}
	}
	nl := bytes.Index(b, []byte("\r\n"))
	if nl < 0 || !bytes.HasPrefix(b, []byte("VALUE ")) {
		return 0
	}
	f := strings.Split(string(b[:nl]), " ")
	if len(f) != 4 || f[1] == "" || f[2] != "0" {
		return 0
	}
	n, err := strconv.Atoi(f[3])
	end := nl + 2 + n
	if err != nil || n < 0 || len(b) < end+7 || string(b[end:end+7]) != "\r\nEND\r\n" {
		return 0
	}
	return end + 7
}
