package sim

import (
	"time"
)

// endAction is one deferred end-of-task callback: fn(arg), which avoids a
// closure allocation on hot paths.
type endAction struct {
	fn  func(any)
	arg any
}

// A Meter accumulates the virtual CPU cost of a task as it executes, and
// collects actions to release when the task's virtual time window ends
// (e.g. frames to place on a NIC ring at the end of a run-to-completion
// cycle). Task logic runs instantaneously in host time at the task's
// virtual start; the meter determines when the core becomes free and when
// the task's externally visible outputs appear.
type Meter struct {
	total time.Duration
	atEnd []endAction
}

// Charge adds d of virtual CPU time to the task.
func (m *Meter) Charge(d time.Duration) {
	if d > 0 {
		m.total += d
	}
}

// ChargeN adds n×d of virtual CPU time.
func (m *Meter) ChargeN(n int, d time.Duration) {
	if n > 0 && d > 0 {
		m.total += time.Duration(n) * d
	}
}

// Elapsed returns the cost charged so far.
func (m *Meter) Elapsed() time.Duration { return m.total }

// AtEndCall registers the one-shot fn(arg) to run at the task's virtual
// end time, after all cost has been charged. Registered calls run in
// order.
func (m *Meter) AtEndCall(fn func(any), arg any) {
	m.atEnd = append(m.atEnd, endAction{fn: fn, arg: arg})
}

// runEnd fires the registered end actions in order and clears them.
// Actions registered by a running end action (re-entrant AtEndCall) are
// picked up by re-reading the live slice each iteration.
func (m *Meter) runEnd() {
	for i := 0; i < len(m.atEnd); i++ {
		a := m.atEnd[i]
		m.atEnd[i] = endAction{}
		a.fn(a.arg)
	}
}

// TaskClass labels work so cores can charge a context-switch penalty when
// switching between classes (e.g. Linux softirq vs. application thread).
type TaskClass int

// Task classes used by the OS architecture models.
const (
	ClassDataplane TaskClass = iota // IX elastic thread cycle
	ClassKernel                     // Linux hardirq/softirq work
	ClassUser                       // application thread work
	ClassTCPThread                  // mTCP per-core TCP thread
)

type coreTask struct {
	class TaskClass
	fn    func(*Meter)
	ready Time // earliest virtual start
}

// A Core models one hardware thread. Tasks submitted to a core run
// serially; each task's virtual duration is whatever its function charges
// to the Meter. Cores track their busy time: the control plane's
// utilization signal.
type Core struct {
	Eng *Engine
	ID  int

	// CtxSwitch is charged when consecutive tasks have different classes
	// (thread switch on a shared core). Zero for dedicated-core models.
	CtxSwitch time.Duration

	busy      bool
	lastClass TaskClass
	queue     []coreTask
	qHead     int

	// pending is the task handed to the dispatch event; meter is reused
	// across tasks (the core runs one task at a time).
	pending coreTask
	meter   Meter

	// Utilization accounting.
	busyTime  time.Duration
	statStart Time
}

// NewCore returns an idle core attached to eng.
func NewCore(eng *Engine, id int) *Core {
	return &Core{Eng: eng, ID: id, lastClass: -1}
}

// Submit enqueues fn on the core with the given class. The task starts as
// soon as the core is free (FIFO, no preemption).
func (c *Core) Submit(class TaskClass, fn func(*Meter)) {
	c.SubmitAfter(0, class, fn)
}

// SubmitAfter enqueues fn but prevents it from starting earlier than delay
// from now, modelling e.g. scheduler wakeup latency for a blocked thread.
func (c *Core) SubmitAfter(delay time.Duration, class TaskClass, fn func(*Meter)) {
	t := coreTask{class: class, fn: fn, ready: c.Eng.Now().Add(delay)}
	c.queue = append(c.queue, t)
	if !c.busy {
		c.dispatch()
	}
}

// popTask removes the head of the queue, reusing the backing array once
// drained so steady-state submission does not allocate.
func (c *Core) popTask() (coreTask, bool) {
	if c.qHead >= len(c.queue) {
		return coreTask{}, false
	}
	t := c.queue[c.qHead]
	c.queue[c.qHead] = coreTask{}
	c.qHead++
	if c.qHead == len(c.queue) {
		c.queue = c.queue[:0]
		c.qHead = 0
	}
	return t, true
}

// coreStart / coreFinish are the static dispatch trampolines; using
// Engine.Call with the core as argument keeps per-task scheduling
// allocation-free.
func coreStart(a any)  { a.(*Core).runTask() }
func coreFinish(a any) { a.(*Core).finishTask() }

// dispatch starts the next runnable task. Called when the core is idle.
func (c *Core) dispatch() {
	t, ok := c.popTask()
	if !ok {
		return
	}
	start := c.Eng.Now()
	if t.ready > start {
		start = t.ready
	}
	c.busy = true
	c.pending = t
	c.Eng.Call(start, coreStart, c)
}

func (c *Core) runTask() {
	t := c.pending
	c.pending = coreTask{}
	m := &c.meter
	m.total = 0
	m.atEnd = m.atEnd[:0]
	if c.lastClass >= 0 && c.lastClass != t.class && c.CtxSwitch > 0 {
		m.Charge(c.CtxSwitch)
	}
	c.lastClass = t.class
	t.fn(m)
	end := c.Eng.Now().Add(m.total)
	c.busyTime += m.total
	c.Eng.Call(end, coreFinish, c)
}

func (c *Core) finishTask() {
	c.meter.runEnd()
	c.busy = false
	c.dispatch()
}

// ResetStats zeroes utilization counters and marks the measurement epoch.
func (c *Core) ResetStats() {
	c.busyTime = 0
	c.statStart = c.Eng.Now()
}

// Utilization returns the fraction of time since ResetStats the core
// spent busy, or zero before any time has passed.
func (c *Core) Utilization() float64 {
	elapsed := c.Eng.Now().Sub(c.statStart)
	if elapsed <= 0 {
		return 0
	}
	return float64(c.busyTime) / float64(elapsed)
}
