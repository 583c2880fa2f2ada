package fabric

import (
	"bytes"
	"testing"

	"ix/internal/wire"
)

// pins is a Backing that counts the frames holding it.
type pins struct{ n int }

func (p *pins) Pin()   { p.n++ }
func (p *pins) Unpin() { p.n-- }

var (
	carryIPA = wire.Addr4(10, 0, 0, 1)
	carryIPB = wire.Addr4(10, 0, 0, 2)
)

// headerFrame takes a frame holding the Ethernet, IPv4 and TCP headers of
// a segment with payloadLen bytes of payload, marked intact (checksum
// pending) as a stack's output is.
func headerFrame(pool *FramePool, payloadLen int) *Frame {
	const hdrs = wire.EthHdrLen + wire.IPv4HdrLen + wire.TCPHdrLen
	f := pool.Get(hdrs)
	(&wire.EthHeader{Dst: wire.MAC{2, 0, 0, 0, 0, 2}, Src: wire.MAC{2, 0, 0, 0, 0, 1}, EtherType: wire.EtherTypeIPv4}).Marshal(f.Data)
	ip := wire.IPv4Header{TotalLen: uint16(wire.IPv4HdrLen + wire.TCPHdrLen + payloadLen), TTL: 64, Proto: wire.ProtoTCP, Src: carryIPA, Dst: carryIPB}
	ip.Marshal(f.Data[wire.EthHdrLen:])
	tcp := wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 1, Ack: 1, Flags: wire.TCPAck | wire.TCPPsh, Window: 1024, WScale: -1}
	tcp.Marshal(f.Data[wire.EthHdrLen+wire.IPv4HdrLen:])
	f.Intact = true
	return f
}

// TestFrameCarriesPayloadByReference: a frame carrying its payload by
// reference is, to everything that reads it whole, the frame that holds
// the payload — same length, same bytes, same checksum — and it pins the
// sender's memory from Carry until Own or Release.
func TestFrameCarriesPayloadByReference(t *testing.T) {
	pool := NewFramePool()
	payload := []byte("payload bytes the sender still owns, odd length")
	var back pins
	f := headerFrame(pool, len(payload))
	f.Carry(payload, &back)
	if back.n != 1 {
		t.Fatalf("Carry left %d pins, want 1", back.n)
	}
	hdrs := len(f.Data)
	if f.Len() != hdrs+len(payload) {
		t.Fatalf("Len = %d, want %d", f.Len(), hdrs+len(payload))
	}
	f.MaterializeChecksum()
	whole := f.AppendBytes(nil)
	if !bytes.Equal(whole[hdrs:], payload) {
		t.Fatalf("AppendBytes payload %q, want %q", whole[hdrs:], payload)
	}
	if !wire.VerifyTCPChecksum(carryIPA, carryIPB, whole[wire.EthHdrLen+wire.IPv4HdrLen:]) {
		t.Fatal("the checksum materialized over header and carried payload does not verify")
	}

	// Own: the frame now holds its bytes, and the sender's are free.
	f.Own()
	if back.n != 0 || f.Payload != nil {
		t.Fatalf("Own left %d pins and payload %q", back.n, f.Payload)
	}
	if !bytes.Equal(f.Data, whole) {
		t.Fatal("Own changed the frame's bytes")
	}
	f.Data[len(f.Data)-1] ^= 1
	if payload[len(payload)-1] != 'h' {
		t.Fatal("writing an owned frame wrote the sender's bytes")
	}
	f.Release()

	// Release drops the pin of a frame still carrying.
	g := headerFrame(pool, len(payload))
	g.Carry(payload, &back)
	g.Release()
	if back.n != 0 || pool.InUse() != 0 {
		t.Fatalf("after Release: %d pins, %d frames in use", back.n, pool.InUse())
	}
	h := headerFrame(pool, 0)
	if h.Payload != nil {
		t.Fatal("a recycled frame still carries its last payload")
	}
	h.Release()
}

// TestFramePoolSizeClasses: a frame that holds only headers or a short
// payload comes from the small class, a full-sized one from FrameCap, and
// each recycles within its class.
func TestFramePoolSizeClasses(t *testing.T) {
	pool := NewFramePool()
	small, full := pool.Get(smallFrameCap), pool.Get(smallFrameCap+1)
	if cap(small.Data) != smallFrameCap || cap(full.Data) != FrameCap {
		t.Fatalf("capacities %d and %d, want %d and %d", cap(small.Data), cap(full.Data), smallFrameCap, FrameCap)
	}
	small.Release()
	full.Release()
	if pool.Get(1500) != full || pool.Get(54) != small {
		t.Fatal("a released frame was not reused within its size class")
	}
	if pool.News != 2 {
		t.Fatalf("News = %d, want 2", pool.News)
	}
}
