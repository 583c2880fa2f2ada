package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ix/internal/sim"
	"ix/internal/wire"
)

// TestRevokedThreadConnPanics: every connection lives on the thread its
// RSS bucket maps to, so revocation keeps no sweep for stragglers. A
// flow moved onto the victim against the RETA is a broken invariant,
// and RemoveElasticThread panics naming it.
func TestRevokedThreadConnPanics(t *testing.T) {
	established := false
	eng := sim.NewEngine(5)
	a := New(eng, Config{
		IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1},
		Threads: 2, Seed: 1,
		User: func(api *UserAPI, thread, threads int) UserProgram {
			if thread == 0 {
				api.Connect(1, wire.Addr4(10, 0, 0, 2), 80)
			}
			return &scriptProgram{run: func(api *UserAPI, events []Event, results []SyscallResult) {
				for _, ev := range events {
					if ev.Type == EvConnected && ev.Outcome {
						established = true
					}
				}
			}}
		},
	})
	b := New(eng, Config{
		IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Threads: 1, Seed: 2,
		User: func(api *UserAPI, thread, threads int) UserProgram {
			_ = api.Listen(80)
			return &scriptProgram{run: func(api *UserAPI, events []Event, results []SyscallResult) {
				for _, ev := range events {
					if ev.Type == EvKnock {
						api.Accept(ev.Handle, 0)
					}
				}
			}}
		},
	})
	link := newLink(eng)
	a.NIC().AttachPort(link.Port(0))
	b.NIC().AttachPort(link.Port(1))
	a.ARP().Learn(b.IP(), b.MAC())
	b.ARP().Learn(a.IP(), a.MAC())
	a.Start()
	b.Start()
	eng.RunUntil(sim.Time(time.Millisecond))
	if !established {
		t.Fatal("the connection never opened")
	}

	conns := a.Thread(0).Stack().TCP().Conns()
	if len(conns) != 1 {
		t.Fatalf("thread 0 holds %d connections, want 1", len(conns))
	}
	key := a.Thread(0).Stack().TCP().Conn(conns[0]).Key()
	a.moveConn(a.Thread(0), a.Thread(1), conns[0])

	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, key.String()) || !strings.Contains(msg, "thread 1") {
			t.Fatalf("RemoveElasticThread recovered %q, want a panic naming flow %v on thread 1", msg, key)
		}
	}()
	_ = a.RemoveElasticThread()
}

// TestUserTimerOutlivesItsThread: a user timer armed on a thread whose
// core is revoked before the deadline fires once, on thread 0, and not
// before its deadline.
func TestUserTimerOutlivesItsThread(t *testing.T) {
	const delay = time.Millisecond
	type firing struct {
		thread int
		at     sim.Time
	}
	var fired []firing
	var armedAt sim.Time
	eng := sim.NewEngine(1)
	d := New(eng, Config{
		IP: wire.Addr4(1, 1, 1, 1), MAC: wire.MAC{2},
		Threads: 2,
		User: func(api *UserAPI, thread, threads int) UserProgram {
			if thread == 1 {
				armedAt = eng.Now()
				api.After(delay, func() { fired = append(fired, firing{at: eng.Now()}) })
			}
			return &scriptProgram{run: func(api *UserAPI, events []Event, results []SyscallResult) {
				for _, ev := range events {
					if ev.Type == EvTimer {
						ev.Fn()
						fired[len(fired)-1].thread = thread
					}
				}
			}}
		},
	})
	d.NIC().AttachPort(newLink(eng).Port(0))
	d.Start()
	eng.RunUntil(sim.Time(delay / 4))
	if err := d.RemoveElasticThread(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(10 * delay))
	if len(fired) != 1 {
		t.Fatalf("the timer fired %d times, want once", len(fired))
	}
	if f := fired[0]; f.thread != 0 || f.at < armedAt+sim.Time(delay) {
		t.Fatalf("the timer fired on thread %d at %v, want thread 0 at or after %v",
			f.thread, f.at, armedAt+sim.Time(delay))
	}
}
