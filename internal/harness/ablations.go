package harness

import (
	"fmt"
	"time"

	"ix/internal/cost"
)

// Ablations isolates two §6 mechanisms on one IX server core that a
// Linux client fleet drives past saturation: the zero-copy API against a
// conventional socket layer's per-byte copy on RX and TX (1 KiB
// messages), and coalesced PCIe doorbell writes against one write per
// received packet (64 B messages). The testbed is fixed; the scale does
// not change it.
func Ablations(Scale) *Result {
	r := &Result{
		Name:   "zero-copy and doorbell ablations (1 IX core)",
		Figure: "§6 ablations",
		XLabel: "msg bytes",
		YLabel: "messages/s",
	}
	run := func(label string, msgSize int, c cost.IX) float64 {
		res := RunEcho(EchoSetup{
			ServerArch: ArchIX, ServerCores: 1, IXCost: &c,
			ClientArch: ArchLinux, ClientHosts: 8, ClientCores: 4,
			ConnsPerThread: 8, Rounds: 256, MsgSize: msgSize,
			Warmup: 2 * time.Millisecond, Window: 6 * time.Millisecond,
		})
		r.AddPoint(label, float64(msgSize), res.MsgsPerSec)
		return res.MsgsPerSec
	}
	copying := cost.DefaultIX()
	copying.CopyPerByte = cost.DefaultLinux().CopyPerByte
	perPacket := cost.DefaultIX()
	perPacket.NoDoorbellCoalesce = true

	zc, cpy := run("zero-copy", 1024, cost.DefaultIX()), run("copying", 1024, copying)
	co, pp := run("coalesced", 64, cost.DefaultIX()), run("per-packet", 64, perPacket)
	r.Notes = append(r.Notes,
		fmt.Sprintf("zero-copy / copying at 1 KiB = %.2fx; coalesced / per-packet doorbell at 64 B = %.2fx", zc/cpy, co/pp))
	return r
}
