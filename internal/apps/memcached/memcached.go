// Package memcached is a port of the paper's §5.5 workload: an in-memory
// key-value store speaking the memcached text protocol (get/set), built —
// as the original is — on an event library (here the app interface that
// libix and the baseline adapters implement). Like memcached 1.4.18 it
// uses a hash table with LRU eviction and a *global cache lock* whose
// contention on write-heavy workloads is what limits scaling ("the
// improvement for ETC is lower due to the increased lock contention
// within the application itself"; IX sees no gain beyond 6 cores).
package memcached

import (
	"bytes"
	"math"
	"strconv"
	"time"

	"ix/internal/app"
)

// CPU cost constants for the application logic, calibrated against the
// §5.5 CPU breakdown: at peak, Linux spends ~25% of 8 cores in user mode
// at 550 kRPS (≈3.6 µs/req) and IX reaches 1.55 MRPS on 6 cores with
// <10% kernel time (≈3.2 µs/req of app work).
const (
	parseCost   = 700 * time.Nanosecond  // request parse + dispatch
	lookupCost  = 1100 * time.Nanosecond // hash + bucket walk + LRU touch
	respondCost = 700 * time.Nanosecond  // response header assembly
	storeCost   = 900 * time.Nanosecond  // item allocation + link (sets)
	perByteCost = 0.45                   // ns/byte of key+value handled
	lockHoldGet = 120 * time.Nanosecond  // global lock hold for a GET
	lockHoldSet = 550 * time.Nanosecond  // global lock hold for a SET
	lockAcquire = 60 * time.Nanosecond   // uncontended acquire/release
)

// item is a stored object.
type item struct {
	key        string
	value      []byte
	prev, next *item // LRU list
}

// Store is the shared cache: one per server process, shared by all
// threads exactly as in multithreaded memcached.
type Store struct {
	items map[string]*item
	// LRU list head/tail (head = most recent).
	head, tail *item
	bytes      int
	maxBytes   int

	// Global cache lock contention model. Tasks on different cores
	// call lock() with arbitrary virtual-time ordering, so instead of a
	// reservation queue we track lock *utilization* over a sliding
	// window and charge M/M/1-style queueing delay plus a cache-line
	// coherence term that grows with the number of contending threads.
	// This reproduces the write-frequency-dependent contention of §5.5
	// ("the improvement for ETC is lower due to the increased lock
	// contention ... higher write frequency").
	winStart  int64
	winDemand int64 // ns of lock hold requested in this window
	lastUtil  float64
	// Contenders is the number of server threads sharing the store.
	Contenders int

	// Stats.
	Gets, Sets, Hits, Misses, Evictions uint64
	LockSpin                            time.Duration
}

// NewStore builds a store bounded at maxBytes (default 64 MB).
func NewStore(maxBytes int) *Store {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Store{items: make(map[string]*item), maxBytes: maxBytes}
}

// lockWindow is the utilization-averaging window.
const lockWindow = int64(200 * time.Microsecond)

// lock models acquiring the global cache lock at virtual time now and
// holding it for hold; it returns the total time the caller must charge
// (acquire + queueing spin + hold + coherence transfer).
func (st *Store) lock(now int64, hold time.Duration) time.Duration {
	if now-st.winStart >= lockWindow {
		if now > st.winStart {
			st.lastUtil = float64(st.winDemand) / float64(now-st.winStart)
		}
		st.winStart = now
		st.winDemand = 0
	}
	st.winDemand += int64(hold)
	rho := st.lastUtil
	if rho > 0.95 {
		rho = 0.95
	}
	spin := time.Duration(float64(hold) * rho / (1 - rho))
	// Cache-line ping-pong: the lock word and hot LRU head bounce
	// between the contending cores.
	if st.Contenders > 1 {
		spin += time.Duration(st.Contenders-1) * 35 * time.Nanosecond
	}
	st.LockSpin += spin
	return spin + hold + lockAcquire
}

// get returns the value for key, touching LRU. The lookup reads the
// map with key's bytes in place: no string is built.
//
//ix:hotpath
func (st *Store) get(key []byte) ([]byte, bool) {
	st.Gets++
	it, ok := st.items[string(key)]
	if !ok {
		st.Misses++
		return nil, false
	}
	st.Hits++
	st.touch(it)
	return it.value, true
}

// set inserts or replaces key, taking ownership of val.
func (st *Store) set(key string, val []byte) {
	if it, ok := st.items[key]; ok {
		st.replace(it, val)
		return
	}
	st.insert(key, val)
}

// setCopy is set for a key and value that alias a receive buffer. A
// replaced item keeps its value backing when the new value fits (a
// workload's key always carries a value of the same length), so only a
// new key builds a string and copies its value.
//
//ix:hotpath
func (st *Store) setCopy(key, val []byte) {
	it, ok := st.items[string(key)]
	if !ok {
		//ixvet:ignore(hotpath) a new item owns its key string and value copy; replacing one allocates nothing
		st.insert(string(key), append([]byte(nil), val...))
		return
	}
	if cap(it.value) >= len(val) {
		// Only the backing is written here: replace still reads the old
		// length from it.value.
		st.replace(it, append(it.value[:0], val...))
	} else {
		st.replace(it, append([]byte(nil), val...))
	}
}

func (st *Store) replace(it *item, val []byte) {
	st.Sets++
	st.bytes += len(val) - len(it.value)
	it.value = val
	st.touch(it)
	st.evict()
}

func (st *Store) insert(key string, val []byte) {
	st.Sets++
	it := &item{key: key, value: val}
	st.items[key] = it
	st.bytes += len(key) + len(val)
	st.pushFront(it)
	st.evict()
}

// evict drops least recently used items until the store fits maxBytes.
func (st *Store) evict() {
	for st.bytes > st.maxBytes && st.tail != nil {
		ev := st.tail
		st.unlink(ev)
		delete(st.items, ev.key)
		st.bytes -= len(ev.key) + len(ev.value)
		st.Evictions++
	}
}

func (st *Store) touch(it *item) {
	if st.head == it {
		return
	}
	st.unlink(it)
	st.pushFront(it)
}

func (st *Store) pushFront(it *item) {
	it.prev = nil
	it.next = st.head
	if st.head != nil {
		st.head.prev = it
	}
	st.head = it
	if st.tail == nil {
		st.tail = it
	}
}

func (st *Store) unlink(it *item) {
	if it.prev != nil {
		it.prev.next = it.next
	} else if st.head == it {
		st.head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else if st.tail == it {
		st.tail = it.prev
	}
	it.prev, it.next = nil, nil
}

// Len returns the number of stored items.
func (st *Store) Len() int { return len(st.items) }

// ServerFactory returns the memcached server application sharing store,
// listening on port on every thread.
func ServerFactory(store *Store, port uint16) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		if threads > store.Contenders {
			store.Contenders = threads
		}
		s := &server{env: env, store: store}
		if err := env.Listen(port); err != nil {
			panic(err)
		}
		return s
	}
}

type server struct {
	app.Base
	env   app.Env
	store *Store
	// hdr is the scratch a GET hit's VALUE line is built in; Send copies
	// it out before returning.
	hdr []byte
}

// connState holds the incomplete tail of a request stream.
type connState struct {
	buf []byte
}

func (s *server) OnAccept(c app.Conn) { c.SetCookie(&connState{}) }

// OnRecv executes every complete command in the stream. Commands are
// parsed straight from data unless an earlier arrival left a tail, and
// only what is still incomplete is copied out of data.
func (s *server) OnRecv(c app.Conn, data []byte) {
	st, _ := c.Cookie().(*connState)
	if st == nil {
		st = &connState{}
		c.SetCookie(st)
	}
	if len(st.buf) > 0 {
		st.buf = append(st.buf, data...)
		data = st.buf
	}
	for {
		n := s.process(c, data)
		if n == 0 {
			break
		}
		data = data[n:]
	}
	st.buf = append(st.buf[:0], data...)
	if len(st.buf) == 0 {
		st.buf = nil
	}
}

// process parses one complete command from buf, executes it, and returns
// the bytes consumed (0 if incomplete).
//
//ix:hotpath
func (s *server) process(c app.Conn, buf []byte) int {
	nl := bytes.Index(buf, crlf)
	if nl < 0 {
		return 0
	}
	line := buf[:nl]
	consumed := nl + 2
	s.env.Charge(parseCost + time.Duration(float64(nl)*perByteCost))
	switch {
	case len(line) > 4 && string(line[:4]) == "get ":
		key := line[4:]
		spin := s.store.lock(s.env.Now()+int64(s.env.Elapsed()), lockHoldGet)
		s.env.Charge(spin + lookupCost)
		val, ok := s.store.get(key)
		s.env.Charge(respondCost)
		if ok {
			s.env.Charge(time.Duration(float64(len(val)) * perByteCost))
			h := append(s.hdr[:0], "VALUE "...)
			h = append(h, key...)
			h = append(h, " 0 "...)
			h = strconv.AppendInt(h, int64(len(val)), 10)
			s.hdr = append(h, crlf...)
			c.Send(s.hdr)
			c.Send(val)
			c.Send(crlfEnd)
		} else {
			c.Send(endOnly)
		}
		return consumed
	case len(line) > 4 && string(line[:4]) == "set ":
		key, nbytes, ok := parseSet(line[4:])
		if !ok {
			c.Send(clientError)
			return consumed
		}
		total := consumed + nbytes + 2
		if len(buf) < total {
			return 0 // wait for the body
		}
		spin := s.store.lock(s.env.Now()+int64(s.env.Elapsed()), lockHoldSet)
		s.env.Charge(spin + storeCost + time.Duration(float64(nbytes)*perByteCost))
		s.store.setCopy(key, buf[consumed:consumed+nbytes])
		s.env.Charge(respondCost)
		c.Send(stored)
		return total
	case string(line) == "quit":
		c.Close()
		return consumed
	default:
		c.Send(errorReply)
		return consumed
	}
}

// MaxItemSize is the largest value a set may carry: memcached's default
// item size limit, 1 MiB.
const MaxItemSize = 1 << 20

// parseSet parses the arguments of `set <key> <flags> <exptime> <bytes>`:
// exactly four fields separated by runs of spaces, flags and exptime
// unsigned decimals within 32 bits (the server keeps neither), the byte
// count an unsigned decimal no larger than MaxItemSize.
func parseSet(args []byte) (key []byte, nbytes int, ok bool) {
	key, args = field(args)
	flags, args := field(args)
	exp, args := field(args)
	count, args := field(args)
	if extra, _ := field(args); len(key) == 0 || len(extra) > 0 {
		return nil, 0, false
	}
	_, okFlags := ParseCount(flags, math.MaxUint32)
	_, okExp := ParseCount(exp, math.MaxUint32)
	nbytes, okCount := ParseCount(count, MaxItemSize)
	return key, nbytes, okFlags && okExp && okCount
}

// field splits the first space-delimited field off b.
func field(b []byte) (f, rest []byte) {
	for len(b) > 0 && b[0] == ' ' {
		b = b[1:]
	}
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// ParseCount parses a protocol number: one or more decimal digits, no
// sign, with a value no larger than limit.
func ParseCount(b []byte, limit int) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int(c-'0'); n > limit {
			return 0, false
		}
	}
	return n, true
}

var (
	crlf        = []byte("\r\n")
	crlfEnd     = []byte("\r\nEND\r\n")
	endOnly     = []byte("END\r\n")
	stored      = []byte("STORED\r\n")
	errorReply  = []byte("ERROR\r\n")
	clientError = []byte("CLIENT_ERROR bad command line\r\n")
)

// SetDirect installs a key without lock or CPU modelling — used by the
// harness to preload the keyspace before measurement, like mutilate's
// --loadonly pass. The store owns val from then on: a later set of the
// same key may overwrite its bytes.
func (st *Store) SetDirect(key string, val []byte) { st.set(key, val) }
