package core

import (
	"testing"
	"time"

	"ix/internal/mem"
	"ix/internal/sim"
	"ix/internal/wire"
)

// TestCookieOnEveryEvent: the user's cookie lives in the capability
// entry, not the PCB, so the kernel reads it from the gate for each
// event condition — before revoking the handle on a dead or refused
// flow, and across a migration's re-grant. The cookie given at connect
// or accept must come back unchanged on EvConnected (both outcomes),
// EvRecv, EvSent, EvEOF and EvDead, and on EvMigrated after the flow
// moves to another elastic thread.
func TestCookieOnEveryEvent(t *testing.T) {
	const (
		clientCookie  = 0xc11e47
		refusedCookie = 0x4ef05ed
		serverCookie  = 0x5e4e4
	)
	type seen struct {
		typ    EventType
		cookie uint64
		ok     bool
	}
	var client, server []seen
	var migratedHandle uint64
	clientEOF := false
	record := func(log *[]seen, evs []Event) {
		for _, ev := range evs {
			if ev.Type != EvKnock {
				*log = append(*log, seen{ev.Type, ev.Cookie, ev.Outcome})
			}
		}
	}

	eng := sim.NewEngine(5)
	a := New(eng, Config{
		IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1},
		Threads: 2, Seed: 1,
		User: func(api *UserAPI, thread, threads int) UserProgram {
			if thread == 1 {
				// Thread 1 opens both flows; removing it moves the
				// accepted one to thread 0.
				api.Connect(clientCookie, wire.Addr4(10, 0, 0, 2), 80)
				api.Connect(refusedCookie, wire.Addr4(10, 0, 0, 2), 81)
			}
			return &scriptProgram{run: func(api *UserAPI, events []Event, results []SyscallResult) {
				record(&client, events)
				for _, ev := range events {
					switch ev.Type {
					case EvRecv:
						api.RecvDone(ev.Handle, ev.Bytes, []*mem.Mbuf{ev.Mbuf})
						api.Sendv(ev.Handle, [][]byte{[]byte("ping")}, nil)
					case EvEOF:
						clientEOF = true
					case EvMigrated:
						migratedHandle = ev.Handle
						api.Close(ev.Handle)
					}
				}
			}}
		},
	})
	b := New(eng, Config{
		IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Threads: 1, Seed: 2,
		User: func(api *UserAPI, thread, threads int) UserProgram {
			if err := api.Listen(80); err != nil {
				t.Fatal(err)
			}
			return &scriptProgram{run: func(api *UserAPI, events []Event, results []SyscallResult) {
				record(&server, events)
				for _, ev := range events {
					switch ev.Type {
					case EvKnock:
						// The client speaks only after this greeting, so
						// every later server event follows the accept.
						api.Accept(ev.Handle, serverCookie)
						api.Sendv(ev.Handle, [][]byte{[]byte("hello")}, nil)
					case EvRecv:
						api.RecvDone(ev.Handle, ev.Bytes, []*mem.Mbuf{ev.Mbuf})
						api.Close(ev.Handle)
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

	for step := 0; !clientEOF; step++ {
		if step == 100 {
			t.Fatal("client never saw the server's FIN")
		}
		eng.RunUntil(eng.Now() + sim.Time(100*time.Microsecond))
	}
	if err := a.RemoveElasticThread(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + sim.Time(10*time.Millisecond))
	if migratedHandle == 0 {
		t.Fatal("the flow did not migrate")
	}

	check := func(side string, log []seen, want []seen) {
		t.Helper()
		for _, w := range want {
			found := false
			for _, s := range log {
				if s.typ == w.typ && s.ok == w.ok {
					found = true
					if s.cookie != w.cookie {
						t.Errorf("%s %v (outcome %v): cookie %#x, want %#x", side, s.typ, s.ok, s.cookie, w.cookie)
					}
				}
			}
			if !found {
				t.Errorf("%s saw no %v (outcome %v)", side, w.typ, w.ok)
			}
		}
	}
	check("client", client, []seen{
		{EvConnected, clientCookie, true},
		{EvConnected, refusedCookie, false},
		{EvRecv, clientCookie, false},
		{EvSent, clientCookie, false},
		{EvEOF, clientCookie, false},
		{EvMigrated, clientCookie, false},
		{EvDead, clientCookie, false},
	})
	check("server", server, []seen{
		{EvRecv, serverCookie, false},
		{EvSent, serverCookie, false},
		{EvDead, serverCookie, false},
	})
	if n := a.Thread(0).Gate().Live() + b.Thread(0).Gate().Live(); n != 0 {
		t.Fatalf("%d handles still live after both flows ended", n)
	}
}
