package wire

import (
	"testing"
	"testing/quick"
)

func TestEthRoundTrip(t *testing.T) {
	h := EthHeader{Dst: MAC{1, 2, 3, 4, 5, 6}, Src: MAC{7, 8, 9, 10, 11, 12}, EtherType: EtherTypeIPv4}
	b := make([]byte, EthHdrLen)
	h.Marshal(b)
	var g EthHeader
	if err := g.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("roundtrip: got %+v want %+v", g, h)
	}
	if err := g.Unmarshal(b[:10]); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	h := IPv4Header{TotalLen: 40, ID: 7, Flags: DontFragment, TTL: 64, Proto: ProtoTCP,
		Src: Addr4(10, 0, 0, 1), Dst: Addr4(10, 0, 0, 2)}
	b := make([]byte, IPv4HdrLen)
	h.Marshal(b)
	var g IPv4Header
	if err := g.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if g.Src != h.Src || g.Dst != h.Dst || g.TotalLen != 40 || g.Proto != ProtoTCP {
		t.Fatalf("roundtrip mismatch: %+v", g)
	}
	// Corrupt a byte: checksum must catch it.
	b[8] ^= 0xff
	if err := g.Unmarshal(b); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

func TestIPv4PropertyRoundTrip(t *testing.T) {
	f := func(tos uint8, totalLen, id uint16, ttl, proto uint8, src, dst uint32) bool {
		h := IPv4Header{TOS: tos, TotalLen: totalLen, ID: id, TTL: ttl, Proto: proto,
			Src: IPv4(src), Dst: IPv4(dst)}
		b := make([]byte, IPv4HdrLen)
		h.Marshal(b)
		var g IPv4Header
		if err := g.Unmarshal(b); err != nil {
			return false
		}
		return g.TOS == tos && g.TotalLen == totalLen && g.ID == id &&
			g.TTL == ttl && g.Proto == proto && g.Src == IPv4(src) && g.Dst == IPv4(dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIPv4UnsummedMarshalPlusSum: the header an intact frame leaves with
// (MarshalUnsummed: the sum field zero) plus the offloaded sum
// (SetIPv4Checksum) is Marshal's header byte for byte, and the pending
// header parses unverified to the same fields.
func TestIPv4UnsummedMarshalPlusSum(t *testing.T) {
	f := func(tos uint8, totalLen, id uint16, flags uint8, fragOff uint16, ttl, proto uint8, src, dst uint32) bool {
		h := IPv4Header{TOS: tos, TotalLen: totalLen, ID: id, Flags: flags & 7, FragOff: fragOff & 0x1fff,
			TTL: ttl, Proto: proto, Src: IPv4(src), Dst: IPv4(dst)}
		want := make([]byte, IPv4HdrLen)
		h.Marshal(want)
		got := make([]byte, IPv4HdrLen)
		for i := range got {
			got[i] = 0xa5 // stale pooled bytes
		}
		u := h
		u.MarshalUnsummed(got)
		if got[10] != 0 || got[11] != 0 {
			return false
		}
		var g IPv4Header
		if g.UnmarshalUnverified(got) != nil || g.Src != h.Src || g.Dst != h.Dst || g.TotalLen != totalLen || g.ID != id {
			return false
		}
		if sum := SetIPv4Checksum(got); sum != h.Checksum {
			return false
		}
		return string(got) == string(want) && g.Unmarshal(got) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPHeaderRoundTrip(t *testing.T) {
	h := TCPHeader{SrcPort: 32768, DstPort: 80, Seq: 0xdeadbeef, Ack: 0x12345678,
		Flags: TCPSyn | TCPAck, Window: 5840, MSS: 1460, WScale: 3}
	b := make([]byte, h.Len())
	h.Marshal(b)
	var g TCPHeader
	n, err := g.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != h.Len() {
		t.Fatalf("consumed %d, want %d", n, h.Len())
	}
	if g.Seq != h.Seq || g.Ack != h.Ack || g.Flags != h.Flags || g.MSS != 1460 || g.WScale != 3 {
		t.Fatalf("roundtrip mismatch: %+v", g)
	}
}

func TestTCPHeaderPropertyRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, wnd uint16, mss uint16) bool {
		h := TCPHeader{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags, Window: wnd, MSS: mss | 1, WScale: -1}
		b := make([]byte, h.Len())
		h.Marshal(b)
		var g TCPHeader
		if _, err := g.Unmarshal(b); err != nil {
			return false
		}
		return g.SrcPort == sp && g.DstPort == dp && g.Seq == seq && g.Ack == ack &&
			g.Flags == flags && g.Window == wnd && g.MSS == mss|1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPChecksum(t *testing.T) {
	src, dst := Addr4(1, 2, 3, 4), Addr4(5, 6, 7, 8)
	h := TCPHeader{SrcPort: 1000, DstPort: 2000, Seq: 1, Ack: 2, Flags: TCPAck, Window: 100, WScale: -1}
	payload := []byte("hello, ix")
	seg := make([]byte, h.Len()+len(payload))
	h.Marshal(seg)
	copy(seg[h.Len():], payload)
	SetTCPChecksum(src, dst, seg)
	if !VerifyTCPChecksum(src, dst, seg) {
		t.Fatal("valid checksum rejected")
	}
	seg[len(seg)-1] ^= 1
	if VerifyTCPChecksum(src, dst, seg) {
		t.Fatal("corrupted payload accepted")
	}
}

// TestChecksumProperty: appending the checksum of data makes the overall
// sum verify (the defining property of the internet checksum).
func TestChecksumProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		ck := Checksum(data)
		full := append(append([]byte{}, data...), byte(ck>>8), byte(ck))
		return Checksum(full) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestARPRoundTrip(t *testing.T) {
	p := ARPPacket{Op: ARPRequest, SenderHW: MAC{1, 1, 1, 1, 1, 1},
		SenderIP: Addr4(10, 0, 0, 1), TargetIP: Addr4(10, 0, 0, 2)}
	b := make([]byte, ARPLen)
	p.Marshal(b)
	var g ARPPacket
	if err := g.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if g.Op != ARPRequest || g.SenderIP != p.SenderIP || g.TargetIP != p.TargetIP || g.SenderHW != p.SenderHW {
		t.Fatalf("roundtrip mismatch: %+v", g)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDPHeader{SrcPort: 53, DstPort: 5353, Length: 20}
	b := make([]byte, UDPHdrLen)
	u.Marshal(b)
	var gu UDPHeader
	if err := gu.Unmarshal(b); err != nil || gu != u {
		t.Fatalf("udp roundtrip: %+v err %v", gu, err)
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{SrcIP: Addr4(1, 1, 1, 1), DstIP: Addr4(2, 2, 2, 2), SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	r := k.Reverse()
	if r.SrcIP != k.DstIP || r.DstPort != k.SrcPort || r.Reverse() != k {
		t.Fatalf("reverse broken: %v", r)
	}
}

func TestWireLen(t *testing.T) {
	if WireLen(60) != 84 {
		t.Fatalf("WireLen(60) = %d, want 84", WireLen(60))
	}
	if WireLen(10) != 84 { // min frame padding
		t.Fatalf("WireLen(10) = %d, want 84", WireLen(10))
	}
	if WireLen(1514) != 1538 {
		t.Fatalf("WireLen(1514) = %d, want 1538", WireLen(1514))
	}
}

func TestAddrFormatting(t *testing.T) {
	if Addr4(192, 168, 1, 2).String() != "192.168.1.2" {
		t.Fatal("IPv4 formatting broken")
	}
	if (MAC{0xde, 0xad, 0, 0, 0, 1}).String() != "de:ad:00:00:00:01" {
		t.Fatal("MAC formatting broken")
	}
}
