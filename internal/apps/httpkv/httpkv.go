// Package httpkv is the blocking-facade workload: an HTTP/1.1 echo
// server and a redis-style key-value store, plus a connection-pooled
// closed-loop client, all written purely against net.Conn / net.Listener.
// Nothing in this package knows which stack it runs on — the same code
// runs on IX, Linux and mTCP through ixnet's deterministic fibers,
// demonstrating that the event-driven dataplane API can carry an
// unmodified sockets-style application (the libix compatibility goal
// of §4.3, taken one layer further than the libevent shim).
package httpkv

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"time"

	"ix/internal/app"
	"ix/internal/ixnet"
	"ix/internal/stats"
	"ix/internal/wire"
)

// serveCost is the per-request application cost of the trivial
// echo/store logic (parsing, map touch, response assembly).
const serveCost = 300 * time.Nanosecond

// perByteCost is the application's per-byte touch cost (ns/byte).
const perByteCost = 0.05

// HTTPServerFactory serves HTTP/1.1 echo on port: POST bodies come
// back verbatim, GETs get a fixed banner. Keep-alive by default,
// Connection: close honored. One accept loop per elastic thread; each
// connection is served by its own fiber.
func HTTPServerFactory(port uint16) app.Factory {
	return ixnet.Factory(func(n *ixnet.Net) {
		l, err := n.Listen(port)
		if err != nil {
			panic(err)
		}
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conn := c
			n.Go(func() { serveHTTP(n, conn) })
		}
	})
}

func serveHTTP(n *ixnet.Net, c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	var resp []byte
	for {
		method, _, body, keep, err := readHTTPRequest(br)
		if err != nil {
			return // EOF, reset or malformed: drop the connection
		}
		n.Charge(serveCost + time.Duration(float64(len(body))*perByteCost))
		if method == "GET" {
			body = []byte("ixnet httpkv\n")
		}
		resp = appendHTTPResponse(resp[:0], body, keep)
		if _, err := c.Write(resp); err != nil {
			return
		}
		if !keep {
			return
		}
	}
}

// appendHTTPResponse appends a 200 response carrying body to dst.
func appendHTTPResponse(dst, body []byte, keep bool) []byte {
	dst = append(dst, "HTTP/1.1 200 OK\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	if keep {
		dst = append(dst, "\r\nConnection: keep-alive\r\n\r\n"...)
	} else {
		dst = append(dst, "\r\nConnection: close\r\n\r\n"...)
	}
	return append(dst, body...)
}

// appendHTTPRequest appends a request carrying body to dst; keep-alive
// is HTTP/1.1's default, so only its absence is spelled out.
func appendHTTPRequest(dst []byte, method, target string, body []byte, keep bool) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, target...)
	dst = append(dst, " HTTP/1.1\r\nHost: ix\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	if !keep {
		dst = append(dst, "\r\nConnection: close"...)
	}
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// readHTTPRequest parses one request off br: request line, headers
// (only Content-Length and Connection are interpreted), then exactly
// Content-Length body bytes.
func readHTTPRequest(br *bufio.Reader) (method, target string, body []byte, keep bool, err error) {
	line, err := readLine(br)
	if err != nil {
		return "", "", nil, false, err
	}
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := bytes.LastIndexByte(line, ' ')
	if sp1 < 0 || sp2 <= sp1 {
		return "", "", nil, false, errMalformed
	}
	// line aliases br's buffer: copy out before the next read.
	method = string(line[:sp1])
	target = string(line[sp1+1 : sp2])
	clen, keep, err := readHeaders(br)
	if err != nil {
		return "", "", nil, false, err
	}
	if clen > 0 {
		body = make([]byte, clen)
		if _, err := io.ReadFull(br, body); err != nil {
			return "", "", nil, false, err
		}
	}
	return method, target, body, keep, nil
}

// readHeaders consumes header lines up to and including the blank one.
// Names match case-insensitively and values are trimmed; absent
// headers read as Content-Length 0 and keep-alive, HTTP/1.1's defaults.
func readHeaders(br *bufio.Reader) (int, bool, error) {
	clen, keep := 0, true
	for {
		h, err := readLine(br)
		if err != nil {
			return 0, false, err
		}
		if len(h) == 0 {
			return clen, keep, nil
		}
		col := bytes.IndexByte(h, ':')
		if col < 0 {
			return 0, false, errMalformed
		}
		name, val := bytes.TrimSpace(h[:col]), bytes.TrimSpace(h[col+1:])
		switch {
		case bytes.EqualFold(name, []byte("content-length")):
			if clen, err = parseLen(val); err != nil {
				return 0, false, err
			}
		case bytes.EqualFold(name, []byte("connection")):
			keep = string(val) != "close"
		}
	}
}

// maxBody bounds a length field read off the wire: a peer cannot make
// the parser allocate more than this on the strength of a few digits.
const maxBody = 1 << 20

// parseLen parses a non-negative decimal length no larger than maxBody.
func parseLen(b []byte) (int, error) {
	n, err := strconv.Atoi(string(b))
	if err != nil || n < 0 || n > maxBody {
		return 0, errMalformed
	}
	return n, nil
}

var errMalformed = errors.New("httpkv: malformed request")

// readLine reads one CRLF-terminated line, returning it without the
// terminator. The line aliases br's buffer and is valid only until the
// next read; one longer than that buffer fails (bufio.ErrBufferFull).
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// Store is the key-value state shared by every server thread on the
// host (host Go memory; threads on one host are engine-serialized, the
// same sharing model as the memcached store).
type Store struct {
	m    map[string]string
	Sets uint64
	Gets uint64
	Hits uint64
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{m: make(map[string]string)} }

// KVServerFactory serves the line protocol on port against store:
//
//	SET <key> <value>\r\n  → +OK\r\n
//	GET <key>\r\n          → $<len>\r\n<value>\r\n  (or $-1\r\n on miss)
//
// — the redis shape, line-framed values.
func KVServerFactory(port uint16, store *Store) app.Factory {
	return ixnet.Factory(func(n *ixnet.Net) {
		l, err := n.Listen(port)
		if err != nil {
			panic(err)
		}
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conn := c
			n.Go(func() { serveKV(n, conn, store) })
		}
	})
}

func serveKV(n *ixnet.Net, c net.Conn, store *Store) {
	defer c.Close()
	br := bufio.NewReader(c)
	var resp []byte
	for {
		line, err := readLine(br)
		if err != nil {
			return
		}
		n.Charge(serveCost + time.Duration(float64(len(line))*perByteCost))
		resp = store.exec(resp[:0], line)
		if _, err := c.Write(resp); err != nil {
			return
		}
	}
}

// exec applies one command line to the store and appends the reply to
// dst. Anything that is not a well-formed SET or GET gets -ERR.
func (s *Store) exec(dst, line []byte) []byte {
	cmd, rest, ok := bytes.Cut(line, []byte(" "))
	switch {
	case ok && string(cmd) == "SET":
		key, val, ok := bytes.Cut(rest, []byte(" "))
		if !ok {
			break
		}
		s.m[string(key)] = string(val)
		s.Sets++
		return append(dst, "+OK\r\n"...)
	case ok && string(cmd) == "GET":
		s.Gets++
		v, hit := s.m[string(rest)]
		if !hit {
			return append(dst, "$-1\r\n"...)
		}
		s.Hits++
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(v)), 10)
		dst = append(dst, "\r\n"...)
		dst = append(dst, v...)
		return append(dst, "\r\n"...)
	}
	return append(dst, "-ERR\r\n"...)
}

// Metrics aggregates client-side results across every client thread of
// an experiment (host Go memory, like echo.Metrics).
type Metrics struct {
	HTTPOps stats.Counter
	KVOps   stats.Counter
	Errors  stats.Counter
	// VerifyErrors counts responses whose payload differed from what
	// the protocol guarantees (echo mismatch, KV read-your-write miss).
	VerifyErrors stats.Counter
	// Latency is per-operation round-trip time (HTTP and KV samples).
	Latency *stats.Histogram
	// Running gates the closed loop: when false, workers finish the
	// in-flight operation, return pooled connections and close.
	Running bool
}

// NewMetrics returns a metrics sink with Running set.
func NewMetrics() *Metrics {
	return &Metrics{Latency: stats.NewHistogram(), Running: true}
}

// ResetWindow starts a measurement window.
func (m *Metrics) ResetWindow() {
	m.HTTPOps.Reset()
	m.KVOps.Reset()
	m.Errors.Reset()
	m.Latency.Reset()
}

// PooledConn is what the pool hands out: the connection and the
// buffered reader that travels with it, so a pooled connection keeps
// one reader for its life whichever worker holds it.
type PooledConn struct {
	net.Conn
	br *bufio.Reader
}

// Pool is a trivial connection pool: Get reuses an idle connection or
// dials a new one; Put returns it. Fibers of one thread share it (one
// runs at a time, so no locking).
type Pool struct {
	dial func() (net.Conn, error)
	idle []*PooledConn
}

// NewPool returns a pool dialing with dial.
func NewPool(dial func() (net.Conn, error)) *Pool {
	return &Pool{dial: dial}
}

// Get pops an idle connection or dials.
func (p *Pool) Get() (*PooledConn, error) {
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		return c, nil
	}
	c, err := p.dial()
	if err != nil {
		return nil, err
	}
	return &PooledConn{Conn: c, br: bufio.NewReader(c)}, nil
}

// Put returns a healthy connection to the pool.
func (p *Pool) Put(c *PooledConn) { p.idle = append(p.idle, c) }

// Close closes every idle connection.
func (p *Pool) Close() {
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
}

// ClientConfig parameterizes the closed-loop client.
type ClientConfig struct {
	HTTPIP   wire.IPv4
	HTTPPort uint16
	KVIP     wire.IPv4
	KVPort   uint16
	// Workers is the number of client fibers per thread; each keeps a
	// persistent HTTP connection and draws KV connections from the
	// thread's shared pool.
	Workers int
	// BodySize is the HTTP echo payload size.
	BodySize int
	Metrics  *Metrics
}

// ClientFactory returns the closed-loop client: each worker fiber
// alternates an HTTP echo POST and a KV SET/GET pair, verifying both
// responses, until Metrics.Running clears.
func ClientFactory(cfg ClientConfig) app.Factory {
	return ixnet.Factory(func(n *ixnet.Net) {
		d := ixnet.Dialer{Net: n, Timeout: 2 * time.Second}
		pool := NewPool(func() (net.Conn, error) { return d.Dial(cfg.KVIP, cfg.KVPort) })
		for i := 0; i < cfg.Workers; i++ {
			w := i
			n.Go(func() { worker(n, &d, pool, cfg, w) })
		}
	})
}

func worker(n *ixnet.Net, d *ixnet.Dialer, pool *Pool, cfg ClientConfig, id int) {
	m := cfg.Metrics
	hc, err := d.Dial(cfg.HTTPIP, cfg.HTTPPort)
	if err != nil {
		m.Errors.Inc()
		return
	}
	defer hc.Close()
	hbr := bufio.NewReader(hc)
	body := make([]byte, cfg.BodySize)
	for i := range body {
		body[i] = byte('a' + (id+i)%23)
	}
	var req, key, val []byte // reused every round
	seq := 0
	for m.Running {
		// HTTP echo round.
		t0 := n.Now()
		req = appendHTTPRequest(req[:0], "POST", "/echo", body, true)
		if _, err := hc.Write(req); err != nil {
			m.Errors.Inc()
			return
		}
		echoed, err := readHTTPResponse(hbr)
		if err != nil {
			m.Errors.Inc()
			return
		}
		if !bytes.Equal(echoed, body) {
			m.VerifyErrors.Inc()
		}
		m.Latency.Record(n.Now().Sub(t0))
		m.HTTPOps.Inc()

		// KV round on a pooled connection: SET then read-your-write GET.
		kc, err := pool.Get()
		if err != nil {
			m.Errors.Inc()
			return
		}
		// Key t<thread>-w<worker>-<seq mod 32>, value v<seq>.
		key = strconv.AppendInt(append(key[:0], 't'), int64(n.Thread()), 10)
		key = strconv.AppendInt(append(key, "-w"...), int64(id), 10)
		key = strconv.AppendInt(append(key, '-'), int64(seq%32), 10)
		val = strconv.AppendInt(append(val[:0], 'v'), int64(seq), 10)
		seq++
		t0 = n.Now()
		req = appendSetGet(req[:0], key, val)
		got, err := kvSetGet(kc, req)
		if err != nil {
			m.Errors.Inc()
			kc.Close()
			return
		}
		if !bytes.Equal(got, val) {
			m.VerifyErrors.Inc()
		}
		m.Latency.Record(n.Now().Sub(t0))
		m.KVOps.Inc()
		pool.Put(kc)
	}
	pool.Close()
}

// readHTTPResponse parses one response off br and returns its body.
func readHTTPResponse(br *bufio.Reader) ([]byte, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 200")) {
		return nil, errMalformed
	}
	clen, _, err := readHeaders(br)
	if err != nil {
		return nil, err
	}
	body := make([]byte, clen)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// appendSetGet appends the command pair "SET key val", "GET key" to dst.
func appendSetGet(dst, key, val []byte) []byte {
	dst = append(append(dst, "SET "...), key...)
	dst = append(append(dst, ' '), val...)
	dst = append(append(dst, "\r\nGET "...), key...)
	return append(dst, "\r\n"...)
}

// kvSetGet sends req, a SET and a GET of the same key, and returns the
// value read back, nil on a miss. The protocol is strictly
// request-response, so kc's reader holds no bytes between calls.
func kvSetGet(kc *PooledConn, req []byte) ([]byte, error) {
	if _, err := kc.Write(req); err != nil {
		return nil, err
	}
	ok, err := readLine(kc.br)
	if err != nil {
		return nil, err
	}
	if string(ok) != "+OK" {
		return nil, errMalformed
	}
	return readKVValue(kc.br)
}

// readKVValue parses a GET reply: $<len>\r\n<value>\r\n, or $-1\r\n
// for a miss (nil value, nil error).
func readKVValue(br *bufio.Reader) ([]byte, error) {
	hdr, err := readLine(br)
	if err != nil {
		return nil, err
	}
	if string(hdr) == "$-1" {
		return nil, nil
	}
	if len(hdr) < 1 || hdr[0] != '$' {
		return nil, errMalformed
	}
	vlen, err := parseLen(hdr[1:])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, vlen+2)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf[:vlen], nil
}
