package main

import (
	"fmt"
	"math"
	"time"

	"ix/internal/app"
	"ix/internal/fabric"
	"ix/internal/sim"
)

// The traced run. Spans are recorded from the benchmark's own files,
// around the calls into each layer: the driver's phases, the engine's
// 1 ms simulated slices (the bench drives Eng.Step itself), frame
// delivery into the server's NIC (fabric.Port.Interpose) and every
// application callback and Conn.Send (app.Factory wrappers). A
// discrete-event run cannot be cut finer than that from outside, so the
// same run takes a CPU profile and attributes its samples to layers by
// package (profile.go).

// spanKind indexes the aggregate of one span name.
type spanKind int

const (
	kindPhase spanKind = iota // driver phases: always kept, never aggregated
	kindSlice
	kindDeliver
	kindHandler
	kindSend
	numKinds
)

// keepPerKind bounds the individual spans written per kind: the
// aggregates cover every span, the file shows the first of each.
const keepPerKind = 2000

// A span is one recorded interval. Start and End are host nanoseconds
// since the tracer was made; Parent is the Id of the enclosing kept span
// (-1 at the root); Rep is the stage of the rep it belongs to.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

type openSpan struct {
	kind    spanKind
	id      int // index into spans, -1 when not kept
	start   int64
	childNs int64
}

type spanAgg struct {
	count           uint64
	totalNs, selfNs int64
}

type tracer struct {
	base  time.Time
	spans []span
	kept  [numKinds]int
	stack []openSpan
	agg   [numKinds]spanAgg
	// window gates the aggregates: only spans inside a measured window
	// count toward the per-op numbers.
	window bool
	stage  int
	events uint64 // engine events stepped inside measured windows
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, numKinds*keepPerKind), stack: make([]openSpan, 0, 16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// push opens a span of kind k.
func (t *tracer) push(k spanKind, name string) {
	id := -1
	if k == kindPhase || t.kept[k] < keepPerKind {
		t.kept[k]++
		parent := -1
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i].id >= 0 {
				parent = t.stack[i].id
				break
			}
		}
		id = len(t.spans)
		t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Rep: t.stage})
	}
	start := t.now()
	if id >= 0 {
		t.spans[id].Start = start
	}
	t.stack = append(t.stack, openSpan{kind: k, id: id, start: start})
}

// pop closes the innermost span.
func (t *tracer) pop() {
	end := t.now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - o.start
	if o.id >= 0 {
		t.spans[o.id].End = end
	}
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].childNs += dur
	}
	if t.window && o.kind != kindPhase {
		a := &t.agg[o.kind]
		a.count++
		a.totalNs += dur
		a.selfNs += dur - o.childNs
	}
}

// begin and end bracket a driver phase. Both work on a nil tracer, so
// the timed runs share the driver's code path: end always returns the
// host seconds since t0.
func (t *tracer) begin(name string) bool {
	if t != nil {
		t.push(kindPhase, name)
	}
	return t != nil
}

func (t *tracer) end(open bool, t0 time.Time) float64 {
	if open {
		t.pop()
	}
	return time.Since(t0).Seconds()
}

func (t *tracer) openWindow()  { t.window = true }
func (t *tracer) closeWindow() { t.window = false; t.stage++ }

// runSliced advances the engine by d the way Engine.RunFor does, but
// from out here, one span per simulated millisecond.
func (t *tracer) runSliced(eng *sim.Engine, d time.Duration) {
	const slice = time.Millisecond
	end := eng.Now().Add(d)
	for eng.Now() < end {
		until := min(eng.Now().Add(slice), end)
		before := eng.Processed
		t.push(kindSlice, "sim.step")
		for {
			at, ok := eng.NextEventAt()
			if !ok || at > until {
				break
			}
			eng.Step()
		}
		t.pop()
		if t.window {
			t.events += eng.Processed - before
		}
		eng.RunUntil(until) // nothing left to fire: pads the clock
	}
}

// interposeServer wraps the host-facing port of every server cable, so
// the time inside the NIC's receive entry is a span.
func (t *tracer) interposeServer(st *stage) {
	for _, link := range st.cl.HostLinks(st.server) {
		link.Port(0).Interpose(func(ep fabric.Endpoint) fabric.Endpoint {
			return &tracedEndpoint{ep: ep, t: t}
		})
	}
}

type tracedEndpoint struct {
	ep fabric.Endpoint
	t  *tracer
}

func (e *tracedEndpoint) Deliver(f *fabric.Frame) {
	e.t.push(kindDeliver, "fabric.deliver")
	e.ep.Deliver(f)
	e.t.pop()
}

// wrapFactory makes every handler the factory creates, every closure it
// hands to Env.After and every Conn.Send it issues a span. The wrappers
// forward everything else untouched and schedule nothing themselves, so
// the simulation cannot tell they are there (the traced rep's sim_digest
// is checked against the untraced one).
func (t *tracer) wrapFactory(f app.Factory) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		h := &tracedHandler{t: t, conns: map[app.Conn]*tracedConn{}}
		h.inner = f(&tracedEnv{Env: env, t: t}, thread, threads)
		if sr, ok := h.inner.(app.SendReadyHandler); ok {
			return &tracedSendReadyHandler{tracedHandler: h, sr: sr}
		}
		return h
	}
}

type tracedEnv struct {
	app.Env
	t *tracer
}

func (e *tracedEnv) After(d time.Duration, fn func()) {
	e.Env.After(d, func() {
		e.t.push(kindHandler, "apps.handler")
		fn()
		e.t.pop()
	})
}

// tracedConn is the stable stand-in for one connection: applications
// compare and store the Conn values they are handed, so each underlying
// connection maps to exactly one wrapper for its whole life.
type tracedConn struct {
	app.Conn
	t *tracer
}

func (c *tracedConn) Send(b []byte) int {
	c.t.push(kindSend, "apps.send")
	n := c.Conn.Send(b)
	c.t.pop()
	return n
}

type tracedHandler struct {
	t     *tracer
	inner app.Handler
	conns map[app.Conn]*tracedConn
}

func (h *tracedHandler) conn(c app.Conn) *tracedConn {
	w := h.conns[c]
	if w == nil {
		w = &tracedConn{Conn: c, t: h.t}
		h.conns[c] = w
	}
	return w
}

// Each callback is one apps.handler span around the application's own.

func (h *tracedHandler) OnAccept(c app.Conn) {
	h.t.push(kindHandler, "apps.handler")
	h.inner.OnAccept(h.conn(c))
	h.t.pop()
}

func (h *tracedHandler) OnConnected(c app.Conn, ok bool) {
	h.t.push(kindHandler, "apps.handler")
	h.inner.OnConnected(h.conn(c), ok)
	h.t.pop()
	if !ok {
		delete(h.conns, c)
	}
}

func (h *tracedHandler) OnRecv(c app.Conn, data []byte) {
	h.t.push(kindHandler, "apps.handler")
	h.inner.OnRecv(h.conn(c), data)
	h.t.pop()
}

func (h *tracedHandler) OnSent(c app.Conn, acked int) {
	h.t.push(kindHandler, "apps.handler")
	h.inner.OnSent(h.conn(c), acked)
	h.t.pop()
}

func (h *tracedHandler) OnEOF(c app.Conn) {
	h.t.push(kindHandler, "apps.handler")
	h.inner.OnEOF(h.conn(c))
	h.t.pop()
}

func (h *tracedHandler) OnClosed(c app.Conn) {
	h.t.push(kindHandler, "apps.handler")
	h.inner.OnClosed(h.conn(c))
	h.t.pop()
	delete(h.conns, c)
}

type tracedSendReadyHandler struct {
	*tracedHandler
	sr app.SendReadyHandler
}

func (h *tracedSendReadyHandler) OnSendReady(c app.Conn) {
	h.t.push(kindHandler, "apps.handler")
	h.sr.OnSendReady(h.conn(c))
	h.t.pop()
}

// traceResult is the traced rep's per-layer table.
type traceResult struct {
	// Metrics are the span-derived numbers and the CPU shares, by name.
	Metrics map[string]float64 `json:"metrics"`
	// Samples is the number of CPU-profile samples attributed.
	Samples  int64  `json:"cpu_samples"`
	Spans    []span `json:"spans"`
	problems []string
}

func (t *tracer) result(res *repResult, profiles [][]byte) *traceResult {
	tr := &traceResult{Metrics: map[string]float64{}, Spans: t.spans}
	m := tr.Metrics
	ops := float64(res.Ops)
	m["sim.step_ns_per_event"] = ratio(float64(t.agg[kindSlice].totalNs), float64(t.events))
	m["fabric.deliver_ns_per_frame"] = ratio(float64(t.agg[kindDeliver].totalNs), float64(t.agg[kindDeliver].count))
	m["apps.handler_ns_per_op"] = ratio(float64(t.agg[kindHandler].selfNs), ops)
	m["apps.send_ns_per_op"] = ratio(float64(t.agg[kindSend].totalNs), ops)
	for name, v := range res.Phases {
		m[name] = v
	}

	shares := map[string]float64{}
	for _, raw := range profiles {
		p, err := parseProfile(raw)
		if err != nil {
			tr.problems = append(tr.problems, "cpu profile: "+err.Error())
			continue
		}
		n := p.attribute(shares)
		tr.Samples += n
	}
	sum := 0.0
	for _, class := range profileClasses {
		share := ratio(shares[class], float64(tr.Samples))
		m[class] = share
		sum += share
	}
	if tr.Samples > 0 && math.Abs(sum-1) > 0.01 {
		tr.problems = append(tr.problems, fmt.Sprintf("cpu shares sum to %.4f, not 1", sum))
	}
	return tr
}
