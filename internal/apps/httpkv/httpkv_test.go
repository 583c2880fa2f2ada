package httpkv

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadHTTPRequest(t *testing.T) {
	long := strings.Repeat("x", 5000)
	tests := []struct {
		name, in             string
		method, target, body string
		keep                 bool
		err                  error
	}{
		{name: "keep-alive is the default", in: "GET / HTTP/1.1\r\nHost: ix\r\n\r\n", method: "GET", target: "/", keep: true},
		{name: "connection close", in: "GET / HTTP/1.1\r\nConnection: close\r\n\r\n", method: "GET", target: "/"},
		{name: "connection keep-alive spelled out", in: "GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", method: "GET", target: "/", keep: true},
		{name: "body", in: "POST /echo HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcrest", method: "POST", target: "/echo", body: "abc", keep: true},
		{name: "header case", in: "POST /e HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\nCONNECTION: close\r\n\r\nhi", method: "POST", target: "/e", body: "hi"},
		{name: "header spacing", in: "POST /e HTTP/1.1\r\nContent-Length :\t 2  \r\nConnection:close\r\n\r\nhi", method: "POST", target: "/e", body: "hi"},
		{name: "zero content-length", in: "POST /e HTTP/1.1\r\nContent-Length: 0\r\n\r\n", method: "POST", target: "/e", keep: true},
		{name: "missing content-length", in: "POST /e HTTP/1.1\r\n\r\nabc", method: "POST", target: "/e", keep: true},
		{name: "bare LF line ends", in: "GET /lf HTTP/1.1\nContent-Length: 1\n\nz", method: "GET", target: "/lf", body: "z", keep: true},
		{name: "target with spaces", in: "GET /a b HTTP/1.1\r\n\r\n", method: "GET", target: "/a b", keep: true},
		{name: "no target", in: "GET\r\n\r\n", err: errMalformed},
		{name: "one space", in: "GET /\r\n\r\n", err: errMalformed},
		{name: "header without colon", in: "GET / HTTP/1.1\r\nHost ix\r\n\r\n", err: errMalformed},
		{name: "content-length not a number", in: "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", err: errMalformed},
		{name: "content-length negative", in: "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", err: errMalformed},
		{name: "content-length over the cap", in: "GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", err: errMalformed},
		{name: "short body", in: "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nabc", err: io.ErrUnexpectedEOF},
		{name: "headers cut off", in: "GET / HTTP/1.1\r\nHost: ix\r\n", err: io.EOF},
		{name: "empty input", in: "", err: io.EOF},
		{name: "line longer than the buffer", in: "GET /" + long + " HTTP/1.1\r\n\r\n", err: bufio.ErrBufferFull},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			method, target, body, keep, err := readHTTPRequest(reader(tc.in))
			if !errors.Is(err, tc.err) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if method != tc.method || target != tc.target || string(body) != tc.body || keep != tc.keep {
				t.Fatalf("got (%q, %q, %q, keep=%v), want (%q, %q, %q, keep=%v)",
					method, target, body, keep, tc.method, tc.target, tc.body, tc.keep)
			}
		})
	}
}

// TestReadHTTPRequestPipelined pins that a parse consumes exactly one
// request: on a keep-alive connection the next one starts where the
// body ended, and the first request's strings survive the second read
// (the line they came from aliased the reader's buffer).
func TestReadHTTPRequestPipelined(t *testing.T) {
	br := reader("POST /one HTTP/1.1\r\nContent-Length: 2\r\n\r\nabPUT /two HTTP/1.1\r\n\r\n")
	m1, t1, b1, _, err := readHTTPRequest(br)
	if err != nil {
		t.Fatal(err)
	}
	m2, t2, b2, _, err := readHTTPRequest(br)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != "POST" || t1 != "/one" || string(b1) != "ab" || m2 != "PUT" || t2 != "/two" || b2 != nil {
		t.Fatalf("got (%q %q %q) then (%q %q %q)", m1, t1, b1, m2, t2, b2)
	}
	if _, _, _, _, err := readHTTPRequest(br); err != io.EOF {
		t.Fatalf("third read err = %v, want io.EOF", err)
	}
}

func TestReadHTTPResponse(t *testing.T) {
	tests := []struct {
		name, in, body string
		err            error
	}{
		{name: "what the server writes", in: string(appendHTTPResponse(nil, []byte("hello"), true)), body: "hello"},
		{name: "connection close", in: string(appendHTTPResponse(nil, []byte("bye"), false)), body: "bye"},
		{name: "header case and spacing", in: "HTTP/1.1 200 OK\r\nCONTENT-LENGTH :  2 \r\n\r\nok", body: "ok"},
		{name: "missing content-length", in: "HTTP/1.1 200 OK\r\n\r\n"},
		{name: "not a 200", in: "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n", err: errMalformed},
		{name: "header without colon", in: "HTTP/1.1 200 OK\r\nnonsense\r\n\r\n", err: errMalformed},
		{name: "content-length not a number", in: "HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n", err: errMalformed},
		{name: "short body", in: "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nab", err: io.ErrUnexpectedEOF},
		{name: "cut off in the status line", in: "HTTP/1.1 2", err: io.EOF},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			body, err := readHTTPResponse(reader(tc.in))
			if !errors.Is(err, tc.err) || string(body) != tc.body {
				t.Fatalf("got (%q, %v), want (%q, %v)", body, err, tc.body, tc.err)
			}
		})
	}
}

func TestKVLineProtocol(t *testing.T) {
	s := NewStore()
	steps := []struct{ line, reply string }{
		{"GET k", "$-1\r\n"},
		{"SET k v1", "+OK\r\n"},
		{"GET k", "$2\r\nv1\r\n"},
		{"SET k two words", "+OK\r\n"}, // the value runs to the end of the line
		{"GET k", "$9\r\ntwo words\r\n"},
		{"SET empty ", "+OK\r\n"},
		{"GET empty", "$0\r\n\r\n"},
		{"SET k", "-ERR\r\n"}, // no value
		{"SET", "-ERR\r\n"},
		{"GET", "-ERR\r\n"},
		{"get k", "-ERR\r\n"}, // commands are case-sensitive
		{"DEL k", "-ERR\r\n"},
		{"", "-ERR\r\n"},
	}
	var reply []byte
	for _, st := range steps {
		reply = s.exec(reply[:0], []byte(st.line))
		if string(reply) != st.reply {
			t.Fatalf("%q → %q, want %q", st.line, reply, st.reply)
		}
	}
	if s.Sets != 3 || s.Gets != 4 || s.Hits != 3 {
		t.Fatalf("sets/gets/hits = %d/%d/%d, want 3/4/3 (rejected lines count for nothing)", s.Sets, s.Gets, s.Hits)
	}
}

func TestReadKVValue(t *testing.T) {
	tests := []struct {
		name, in string
		val      []byte
		err      error
	}{
		{name: "hit", in: "$2\r\nv1\r\n", val: []byte("v1")},
		{name: "empty value", in: "$0\r\n\r\n", val: []byte{}},
		{name: "miss", in: "$-1\r\n", val: nil},
		{name: "value holding a line break", in: "$3\r\na\nb\r\n", val: []byte("a\nb")},
		{name: "not a length", in: "+OK\r\n", err: errMalformed},
		{name: "length not a number", in: "$x\r\n", err: errMalformed},
		{name: "other negative length", in: "$-2\r\n", err: errMalformed},
		{name: "length over the cap", in: "$99999999999\r\n", err: errMalformed},
		{name: "short value", in: "$5\r\nab", err: io.ErrUnexpectedEOF},
		{name: "empty line", in: "\r\n", err: errMalformed},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			val, err := readKVValue(reader(tc.in))
			if !errors.Is(err, tc.err) || !bytes.Equal(val, tc.val) || (val == nil) != (tc.val == nil) {
				t.Fatalf("got (%q, %v), want (%q, %v)", val, err, tc.val, tc.err)
			}
		})
	}
}

// TestClientWireFormat pins the bytes the closed-loop client sends: the
// simulated results depend on every frame's length.
func TestClientWireFormat(t *testing.T) {
	if got, want := string(appendHTTPRequest(nil, "POST", "/echo", []byte("abc"), true)),
		"POST /echo HTTP/1.1\r\nHost: ix\r\nContent-Length: 3\r\n\r\nabc"; got != want {
		t.Errorf("request = %q, want %q", got, want)
	}
	if got, want := string(appendHTTPResponse(nil, []byte("abc"), true)),
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nabc"; got != want {
		t.Errorf("response = %q, want %q", got, want)
	}
	if got, want := string(appendSetGet(nil, []byte("t0-w1-2"), []byte("v34"))),
		"SET t0-w1-2 v34\r\nGET t0-w1-2\r\n"; got != want {
		t.Errorf("kv request = %q, want %q", got, want)
	}
}

type closeCounter struct {
	net.Conn
	closed int
}

func (c *closeCounter) Close() error { c.closed++; return nil }

// TestPoolReaderTravelsWithConn pins the pool's contract: the reader is
// made once per dialed connection and comes back with it, and Pool.Close
// closes the connection underneath the wrapper.
func TestPoolReaderTravelsWithConn(t *testing.T) {
	raw := &closeCounter{}
	dials := 0
	p := NewPool(func() (net.Conn, error) { dials++; return raw, nil })
	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c1)
	c2, _ := p.Get()
	if c2 != c1 || c2.br == nil || dials != 1 {
		t.Fatalf("second Get: same conn %v, reader %v, dials %d; want the pooled conn back with its reader after 1 dial", c2 == c1, c2.br != nil, dials)
	}
	p.Put(c2)
	p.Close()
	if raw.closed != 1 {
		t.Fatalf("Pool.Close closed the conn %d times, want 1", raw.closed)
	}
	wantErr := errors.New("refused")
	p = NewPool(func() (net.Conn, error) { return nil, wantErr })
	if c, err := p.Get(); c != nil || err != wantErr {
		t.Fatalf("Get on a failing dial = (%v, %v), want (nil, %v)", c, err, wantErr)
	}
}

// FuzzReadHTTPRequest: the parser never panics and never allocates a
// body the input did not pay for, and whatever it accepts survives a
// round trip through the client's serializer.
func FuzzReadHTTPRequest(f *testing.F) {
	f.Add([]byte("POST /echo HTTP/1.1\r\nHost: ix\r\nContent-Length: 3\r\n\r\nabc"))
	f.Add([]byte("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"))
	f.Add([]byte("GET /lf HTTP/1.1\nCONTENT-LENGTH :1\n\nz"))
	f.Fuzz(func(t *testing.T, in []byte) {
		method, target, body, keep, err := readHTTPRequest(bufio.NewReader(bytes.NewReader(in)))
		if err != nil {
			return
		}
		if len(body) > len(in) {
			t.Fatalf("%d-byte body out of %d bytes of input", len(body), len(in))
		}
		// The serializer spells out HTTP/1.1 and Host, so its request line
		// can be longer than the one parsed: give the re-parse room.
		wire := appendHTTPRequest(nil, method, target, body, keep)
		m2, t2, b2, k2, err := readHTTPRequest(bufio.NewReaderSize(bytes.NewReader(wire), 2*len(wire)))
		if err != nil || m2 != method || t2 != target || !bytes.Equal(b2, body) || k2 != keep {
			t.Fatalf("round trip of (%q, %q, %q, keep=%v) via %q gave (%q, %q, %q, keep=%v, %v)",
				method, target, body, keep, wire, m2, t2, b2, k2, err)
		}
	})
}

// FuzzKVLine frames arbitrary bytes the way serveKV does and executes
// the line: no panic, one of the protocol's replies, and an accepted SET
// reads back through the client's reply parser.
func FuzzKVLine(f *testing.F) {
	f.Add([]byte("SET k v\r\n"))
	f.Add([]byte("GET k\r\n"))
	f.Add([]byte("SET k two words\n"))
	f.Add([]byte("SET\r\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		line, err := readLine(bufio.NewReader(bytes.NewReader(in)))
		if err != nil {
			return
		}
		s := NewStore()
		switch reply := string(s.exec(nil, line)); reply {
		case "-ERR\r\n", "$-1\r\n":
		case "+OK\r\n":
			key, val, _ := bytes.Cut(bytes.TrimPrefix(line, []byte("SET ")), []byte(" "))
			got, err := readKVValue(bufio.NewReader(bytes.NewReader(s.exec(nil, append([]byte("GET "), key...)))))
			if err != nil || !bytes.Equal(got, val) {
				t.Fatalf("SET %q %q read back (%q, %v)", key, val, got, err)
			}
		default:
			t.Fatalf("line %q on an empty store → %q, not a reply the protocol has", line, reply)
		}
	})
}
