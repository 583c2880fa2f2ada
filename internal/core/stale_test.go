package core

import (
	"testing"

	"ix/internal/dune"
	"ix/internal/mem"
	"ix/internal/sim"
	"ix/internal/tcp"
	"ix/internal/wire"
)

// TestStaleHandleAfterSlotReuse: a flow's handle carries its PCB's id,
// so once the flow dies and a new one takes its arena slot, sendv,
// close, abort and recv_done on the old handle are refused by the gate
// as stale and leave the new flow alone. A gate entry that still named
// the freed id — a kernel bookkeeping fault — would reach the stack,
// which panics on the stale id in a test binary.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, Config{
		IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}, Threads: 1, Seed: 1,
		User: func(*UserAPI, int, int) UserProgram {
			return &scriptProgram{run: func(*UserAPI, []Event, []SyscallResult) {}}
		},
	})
	d.Start()
	et := d.Thread(0)
	st := et.ns.TCP()
	dst := wire.Addr4(10, 0, 0, 2)
	c, err := st.Connect(dst, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := c.ID()
	h := et.gate.Grant(uint32(old), 7)
	c.Abort() // Connected(false) revokes the handle
	c2, err := st.Connect(dst, 80, 0)
	if err != nil || c2.ID().Slot() != old.Slot() {
		t.Fatal("the next connection did not reuse the freed slot")
	}
	et.gate.Grant(uint32(c2.ID()), 8)
	calls := []Syscall{
		{Type: SysSendv, Handle: h, SG: [][]byte{[]byte("x")}},
		{Type: SysClose, Handle: h},
		{Type: SysAbort, Handle: h},
		{Type: SysRecvDone, Handle: h, Bufs: []*mem.Mbuf{}},
	}
	for i := range calls {
		if res := et.dispatch(&calls[i], &sim.Meter{}); res.Err != dune.ErrStaleHandle {
			t.Errorf("%v on the old handle: %v, want ErrStaleHandle", calls[i].Type, res.Err)
		}
	}
	if got := et.gate.Violations(dune.VioStaleHandle); got != uint64(len(calls)) {
		t.Fatalf("%d stale-handle violations, want %d", got, len(calls))
	}
	if c2.State() != tcp.StateSynSent {
		t.Fatalf("the slot's new flow is %v", c2.State())
	}
	et.gate.Grant(uint32(old), 7) // the fault: the entry names the freed id
	for i := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v through a gate entry naming a freed id did not panic", calls[i].Type)
				}
			}()
			et.dispatch(&calls[i], &sim.Meter{})
		}()
	}
}
