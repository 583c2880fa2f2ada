package libix

import (
	"testing"
	"time"
	"unsafe"

	"ix/internal/app"
	"ix/internal/core"
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/sim"
	"ix/internal/wire"
)

// TestConnStateSizes pins the per-flow descriptor's size: one exists per
// established connection, so growth is a reviewed decision (DESIGN.md,
// "Per-connection memory budget").
func TestConnStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(conn{}); got > 64 {
		t.Fatalf("libix.conn is %d bytes, budget 64", got)
	}
	// A chunk's header is its host buffer's slice header, the write
	// cursor, the frame pins sharing the cursor's word, and the pool.
	if got := unsafe.Sizeof(mem.TxChunk{}); got > 48 {
		t.Fatalf("mem.TxChunk header is %d bytes, budget 48", got)
	}
	// A held chunk is charged as the modelled chunk — TxChunkSize plus
	// its 16 B of cursor, pins and pool — however small its host buffer.
	var a mem.TxArena
	a.Init(mem.NewTxChunkPool(mem.NewRegion(1), 0))
	a.Append(make([]byte, 64))
	if got, want := a.FootprintBytes(), int64(mem.TxChunkSize+16+8); got != want {
		t.Fatalf("an arena holding one 64 B chunk is charged %d bytes, want %d", got, want)
	}
}

// bulkServer answers every accepted connection with one large response,
// so its sends stay in flight (arena chunks held, transmit vector
// flow-controlled) for many cycles.
type bulkServer struct{ size int }

func (s bulkServer) OnAccept(c app.Conn)             { c.Send(make([]byte, s.size)) }
func (s bulkServer) OnConnected(c app.Conn, ok bool) {}
func (s bulkServer) OnRecv(c app.Conn, data []byte)  {}
func (s bulkServer) OnSent(c app.Conn, n int)        {}
func (s bulkServer) OnEOF(c app.Conn)                { c.Close() }
func (s bulkServer) OnClosed(c app.Conn)             {}

// TestMigrationCarriesBorrowedIO: a connection migrated with a send in
// flight takes its connIO along — arena chunks from the source thread's
// pool, transmit vector mid-drain — and finishes the send from its new
// home. Once everything is acknowledged no chunk or frame is left in
// use on either thread and the I/O objects, the revoked thread's
// included, sit in the surviving program's pool.
func TestMigrationCarriesBorrowedIO(t *testing.T) {
	const (
		conns = 16
		size  = 1 << 20 // several receive windows: in flight for milliseconds
	)
	got := 0
	clientF := func(env app.Env, th, n int) app.Handler {
		rec := &recorder{env: env}
		rec.onRecv = func(c app.Conn, data []byte) { got += len(data) }
		for i := 0; i < conns; i++ {
			_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
		}
		return rec
	}
	serverF := func(env app.Env, th, n int) app.Handler {
		_ = env.Listen(80)
		return bulkServer{size: size}
	}
	var progs []*program
	mkServer := Program(serverF)
	eng := sim.NewEngine(3)
	a := core.New(eng, core.Config{
		IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1},
		Threads: 1, Seed: 1, User: Program(clientF),
	})
	b := core.New(eng, core.Config{
		IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Threads: 2, Seed: 2, MemPages: 4096,
		User: func(api *core.UserAPI, th, n int) core.UserProgram {
			up := mkServer(api, th, n)
			progs = append(progs, up.(*program))
			return up
		},
	})
	link := fabric.NewLink(eng, 10*fabric.Gbps, 500*time.Nanosecond)
	a.NIC().AttachPort(link.Port(0))
	b.NIC().AttachPort(link.Port(1))
	a.ARP().Learn(b.IP(), b.MAC())
	b.ARP().Learn(a.IP(), a.MAC())
	a.Start()
	b.Start()

	eng.RunUntil(sim.Time(500 * time.Microsecond))
	victim := b.Thread(1)
	attached := func(p *program) int {
		n := 0
		for _, c := range p.byHandle {
			if c != nil && c.io != nil {
				n++
			}
		}
		return n
	}
	moving := attached(progs[1])
	if moving == 0 || victim.TxPool().InUse() == 0 {
		t.Fatalf("nothing in flight on the thread about to be revoked (%d conns attached, %d chunks)",
			moving, victim.TxPool().InUse())
	}
	staying := attached(progs[0]) + len(progs[0].ioFree)
	if err := b.RemoveElasticThread(); err != nil {
		t.Fatal(err)
	}

	eng.RunUntil(sim.Time(200 * time.Millisecond))
	if n := attached(progs[1]); n != 0 {
		t.Fatalf("%d connections still bound to the revoked thread's program", n)
	}
	if got != conns*size {
		t.Fatalf("clients received %d of %d bytes across the migration", got, conns*size)
	}
	if n := b.Thread(0).TxPool().InUse() + victim.TxPool().InUse(); n != 0 {
		t.Errorf("%d TX arena chunks still in use after the drain", n)
	}
	if n := b.Thread(0).Stack().FramePool().InUse() + victim.Stack().FramePool().InUse(); n != 0 {
		t.Errorf("%d frames still in use after the drain", n)
	}
	if n := attached(progs[0]); n != 0 {
		t.Errorf("%d drained connections still hold a connIO", n)
	}
	if got, want := len(progs[0].ioFree), staying+moving; got != want {
		t.Errorf("surviving program pools %d connIO objects, want %d (its own %d + %d migrated in)",
			got, want, staying, moving)
	}
}
