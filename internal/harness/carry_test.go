package harness

import (
	"testing"
	"time"

	"ix/internal/apps/echo"
	"ix/internal/fabric"
)

// tap is an endpoint that looks at each frame on its way to next.
type tap struct {
	next fabric.Endpoint
	see  func(*fabric.Frame)
}

func (t tap) Deliver(f *fabric.Frame) { t.see(f); t.next.Deliver(f) }

// TestBulkFramesCarriedByReference: on every stack, 64 KiB echoes leave
// in full-sized frames that carry their payload by reference into the
// sender's arena chunk; only a segment straddling two chunks is copied. Once the load stops, every frame, mbuf and chunk —
// and so every pin the frames held — is back in its pool.
func TestBulkFramesCarriedByReference(t *testing.T) {
	const msg = 64 << 10
	for _, arch := range []Arch{ArchIX, ArchLinux, ArchMTCP} {
		t.Run(arch.String(), func(t *testing.T) {
			cl := NewCluster(3)
			m := echo.NewMetrics()
			srv := cl.AddHost("server", HostSpec{Arch: arch, Cores: 1, Factory: echo.ServerFactory(9000, msg)})
			cli := cl.AddHost("client", HostSpec{Arch: arch, Cores: 1, Factory: echo.ClientFactory(echo.ClientConfig{
				ServerIP: srv.IP(), Port: 9000, MsgSize: msg, Conns: 2, Outstanding: 2, Metrics: m,
			})})
			var full, carried int
			for _, h := range []Host{srv, cli} {
				cl.HostLinks(h)[0].Port(1).Interpose(func(next fabric.Endpoint) fabric.Endpoint {
					return tap{next, func(f *fabric.Frame) {
						if f.Len() > 1000 {
							full++
							if f.Payload != nil {
								carried++
							}
						}
					}}
				})
			}
			cl.Start()
			cl.Run(5 * time.Millisecond)
			m.Running = false
			cl.Run(5 * time.Millisecond)
			if m.Msgs.Total() < 4 || m.Failures.Total() != 0 {
				t.Fatalf("%d echoes, %d failures", m.Msgs.Total(), m.Failures.Total())
			}
			t.Logf("%d echoes, %d of %d full-sized frames carried", m.Msgs.Total(), carried, full)
			if carried < full*85/100 {
				t.Errorf("%d of %d full-sized frames carried their payload by reference, want at least 85%%", carried, full)
			}
			if l := cl.Leaks(); l != (Leaks{}) {
				t.Errorf("leaked after drain: %+v", l)
			}
		})
	}
}
