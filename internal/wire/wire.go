// Package wire implements byte-level encoding and decoding of the network
// headers used by the IX reproduction: Ethernet, ARP, IPv4, UDP and TCP,
// plus the internet checksum. Frames exchanged across the simulated
// fabric are real packets; the protocol stacks parse and validate them the
// same way lwIP did for IX.
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Header and protocol constants.
const (
	EthHdrLen  = 14
	IPv4HdrLen = 20 // no options
	TCPHdrLen  = 20 // without options
	UDPHdrLen  = 8
	ARPLen     = 28

	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806

	ProtoTCP = 6
	ProtoUDP = 17

	// MTU is the standard Ethernet MTU; the paper never enables jumbo
	// frames (§5.1).
	MTU = 1500
	// MSS is the TCP maximum segment size for MTU 1500.
	MSS = MTU - IPv4HdrLen - TCPHdrLen

	// EthOverhead is the per-frame wire overhead beyond the L2 payload:
	// preamble+SFD (8), FCS (4) and minimum inter-frame gap (12).
	EthOverhead = 24
	// EthMinFrame is the minimum Ethernet frame length (without FCS).
	EthMinFrame = 60
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4 is an IPv4 address in host byte order (a.b.c.d == a<<24|b<<16|c<<8|d).
type IPv4 uint32

// Addr4 builds an IPv4 address from its dotted-quad components.
func Addr4(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// FlowKey identifies a transport flow (the NIC RSS input and the TCP
// demultiplexing key).
type FlowKey struct {
	SrcIP, DstIP     IPv4
	SrcPort, DstPort uint16
	Proto            uint8
}

// Reverse returns the key of the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%v:%d>%v:%d/%d", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.Proto)
}

// EthHeader is an Ethernet II header.
type EthHeader struct {
	Dst, Src  MAC
	EtherType uint16
}

// Marshal writes the header into b, which must be ≥ EthHdrLen bytes.
//
//ix:hotpath
func (h *EthHeader) Marshal(b []byte) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.EtherType)
}

// Unmarshal parses an Ethernet header from b.
func (h *EthHeader) Unmarshal(b []byte) error {
	if len(b) < EthHdrLen {
		return fmt.Errorf("wire: short ethernet header: %d bytes", len(b))
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return nil
}

// ARP operation codes.
const (
	ARPRequest = 1
	ARPReply   = 2
)

// ARPPacket is an Ethernet/IPv4 ARP payload.
type ARPPacket struct {
	Op                 uint16
	SenderHW, TargetHW MAC
	SenderIP, TargetIP IPv4
}

// Marshal writes the ARP payload into b, which must be ≥ ARPLen bytes.
func (p *ARPPacket) Marshal(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], 1) // hardware: ethernet
	binary.BigEndian.PutUint16(b[2:4], EtherTypeIPv4)
	b[4] = 6
	b[5] = 4
	binary.BigEndian.PutUint16(b[6:8], p.Op)
	copy(b[8:14], p.SenderHW[:])
	binary.BigEndian.PutUint32(b[14:18], uint32(p.SenderIP))
	copy(b[18:24], p.TargetHW[:])
	binary.BigEndian.PutUint32(b[24:28], uint32(p.TargetIP))
}

// Unmarshal parses an ARP payload from b.
func (p *ARPPacket) Unmarshal(b []byte) error {
	if len(b) < ARPLen {
		return fmt.Errorf("wire: short arp packet: %d bytes", len(b))
	}
	p.Op = binary.BigEndian.Uint16(b[6:8])
	copy(p.SenderHW[:], b[8:14])
	p.SenderIP = IPv4(binary.BigEndian.Uint32(b[14:18]))
	copy(p.TargetHW[:], b[18:24])
	p.TargetIP = IPv4(binary.BigEndian.Uint32(b[24:28]))
	return nil
}

// IPv4Header is an IPv4 header without options.
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment word
	FragOff  uint16
	TTL      uint8
	Proto    uint8
	Checksum uint16
	Src, Dst IPv4
}

// DontFragment is the IPv4 DF flag bit.
const DontFragment = 0x2

// Marshal writes the header into b (≥ IPv4HdrLen bytes) and computes the
// header checksum.
//
//ix:hotpath
func (h *IPv4Header) Marshal(b []byte) {
	h.MarshalUnsummed(b)
	h.Checksum = SetIPv4Checksum(b)
}

// MarshalUnsummed writes the header into b (≥ IPv4HdrLen bytes) with the
// checksum field zero: the sum is pending, offloaded as a NIC would
// compute it (SetIPv4Checksum writes it). h.Checksum is left alone.
//
//ix:hotpath
func (h *IPv4Header) MarshalUnsummed(b []byte) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint32(b[12:16], uint32(h.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(h.Dst))
}

// SetIPv4Checksum computes the header checksum of the IPv4 header at the
// start of b, stores it and returns it.
//
//ix:hotpath
func SetIPv4Checksum(b []byte) uint16 {
	b[10], b[11] = 0, 0
	sum := Checksum(b[:IPv4HdrLen])
	binary.BigEndian.PutUint16(b[10:12], sum)
	return sum
}

// Unmarshal parses and validates an IPv4 header from b.
func (h *IPv4Header) Unmarshal(b []byte) error {
	if err := h.UnmarshalUnverified(b); err != nil {
		return err
	}
	if Checksum(b[:IPv4HdrLen]) != 0 {
		return fmt.Errorf("wire: bad ipv4 header checksum")
	}
	return nil
}

// UnmarshalUnverified is Unmarshal without the header checksum check:
// for a header whose sum is pending, which no one has written since its
// sender built it (fabric.Frame.Intact), so verifying it cannot fail.
func (h *IPv4Header) UnmarshalUnverified(b []byte) error {
	if len(b) < IPv4HdrLen {
		return fmt.Errorf("wire: short ipv4 header: %d bytes", len(b))
	}
	if b[0]>>4 != 4 {
		return fmt.Errorf("wire: bad ip version %d", b[0]>>4)
	}
	if ihl := int(b[0]&0xf) * 4; ihl != IPv4HdrLen {
		return fmt.Errorf("wire: unsupported ip header length %d", ihl)
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	fw := binary.BigEndian.Uint16(b[6:8])
	h.Flags = uint8(fw >> 13)
	h.FragOff = fw & 0x1fff
	h.TTL = b[8]
	h.Proto = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	h.Src = IPv4(binary.BigEndian.Uint32(b[12:16]))
	h.Dst = IPv4(binary.BigEndian.Uint32(b[16:20]))
	return nil
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
	TCPUrg = 1 << 5
)

// TCPHeader is a TCP header. Only the MSS and window-scale options are
// supported (what the IX lwIP configuration used for its benchmarks).
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	// MSS is the maximum segment size option; 0 means absent.
	MSS uint16
	// WScale is the window scale shift; negative means absent.
	WScale int8
}

// OptLen returns the length of the encoded options (padded to 4 bytes).
func (h *TCPHeader) OptLen() int {
	n := 0
	if h.MSS != 0 {
		n += 4
	}
	if h.WScale >= 0 {
		n += 3
	}
	return (n + 3) &^ 3
}

// Len returns the full encoded header length including options.
func (h *TCPHeader) Len() int { return TCPHdrLen + h.OptLen() }

// Marshal writes the header (with options) into b, which must be ≥
// h.Len() bytes. The checksum field is written as zero; call
// SetTCPChecksum on the assembled segment.
//
//ix:hotpath
func (h *TCPHeader) Marshal(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = uint8(h.Len()/4) << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	b[16], b[17] = 0, 0
	binary.BigEndian.PutUint16(b[18:20], h.Urgent)
	o := TCPHdrLen
	if h.MSS != 0 {
		b[o] = 2 // kind: MSS
		b[o+1] = 4
		binary.BigEndian.PutUint16(b[o+2:o+4], h.MSS)
		o += 4
	}
	if h.WScale >= 0 {
		b[o] = 3 // kind: window scale
		b[o+1] = 3
		b[o+2] = uint8(h.WScale)
		o += 3
	}
	for ; o < h.Len(); o++ {
		b[o] = 1 // NOP padding
	}
}

// Unmarshal parses a TCP header (and supported options) from b, returning
// the header length consumed.
func (h *TCPHeader) Unmarshal(b []byte) (int, error) {
	if len(b) < TCPHdrLen {
		return 0, fmt.Errorf("wire: short tcp header: %d bytes", len(b))
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	dataOff := int(b[12]>>4) * 4
	if dataOff < TCPHdrLen || dataOff > len(b) {
		return 0, fmt.Errorf("wire: bad tcp data offset %d", dataOff)
	}
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])
	h.Checksum = binary.BigEndian.Uint16(b[16:18])
	h.Urgent = binary.BigEndian.Uint16(b[18:20])
	h.MSS = 0
	h.WScale = -1
	opts := b[TCPHdrLen:dataOff]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // NOP
			opts = opts[1:]
		case 2: // MSS
			if len(opts) < 4 || opts[1] != 4 {
				return 0, fmt.Errorf("wire: bad mss option")
			}
			h.MSS = binary.BigEndian.Uint16(opts[2:4])
			opts = opts[4:]
		case 3: // window scale
			if len(opts) < 3 || opts[1] != 3 {
				return 0, fmt.Errorf("wire: bad wscale option")
			}
			h.WScale = int8(opts[2])
			opts = opts[3:]
		default:
			if len(opts) < 2 || int(opts[1]) > len(opts) || opts[1] < 2 {
				return 0, fmt.Errorf("wire: bad tcp option")
			}
			opts = opts[opts[1]:]
		}
	}
	return dataOff, nil
}

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Marshal writes the header into b (≥ UDPHdrLen bytes) with a zero
// checksum (legal for UDP over IPv4; the simulated fabric never corrupts
// frames, and this mirrors common datacenter practice).
func (h *UDPHeader) Marshal(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
}

// Unmarshal parses a UDP header from b.
func (h *UDPHeader) Unmarshal(b []byte) error {
	if len(b) < UDPHdrLen {
		return fmt.Errorf("wire: short udp header: %d bytes", len(b))
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	return nil
}

// Checksum computes the RFC 1071 internet checksum of b.
func Checksum(b []byte) uint16 {
	return finish(sum1c(b, 0))
}

// sum1c accumulates the one's-complement sum of b onto acc (a partial
// sum in network byte order). It adds b as 64-bit little-endian words
// with end-around carry (bits.Add64's carry chain): 2^16 ≡ 1 (mod
// 2^16−1), so the 64-bit sum folds down to the 16-bit one, and RFC 1071's
// byte-order independence means summing in the host's order and swapping
// the folded result once gives the network-order sum bit for bit.
func sum1c(b []byte, acc uint32) uint32 {
	var s, c uint64
	for len(b) >= 64 {
		w := b[:64:64] // one bounds check for the eight loads
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(w[0:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(w[8:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(w[16:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(w[24:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(w[32:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(w[40:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(w[48:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(w[56:]), c)
		b = b[64:]
	}
	for len(b) >= 8 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b), c)
		b = b[8:]
	}
	// The tail, zero-padded into one more word; it starts at an even
	// offset, so every byte keeps its 16-bit lane.
	var tail uint64
	shift := 0
	if len(b) >= 4 {
		tail = uint64(binary.LittleEndian.Uint32(b))
		b, shift = b[4:], 32
	}
	if len(b) >= 2 {
		tail |= uint64(binary.LittleEndian.Uint16(b)) << shift
		b, shift = b[2:], shift+16
	}
	if len(b) == 1 {
		tail |= uint64(b[0]) << shift
	}
	s, c = bits.Add64(s, tail, c)
	// End-around carry: if it wraps (only from all ones), to 0 plus one.
	s, c = bits.Add64(s, c, 0)
	s += c
	// Fold 64 → 16 bits keeping carries, then back to network order.
	s = s>>32 + s&0xffffffff
	s = s>>32 + s&0xffffffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	wide := uint64(acc) + uint64(bits.ReverseBytes16(uint16(s)))
	return uint32(wide>>32 + wide&0xffffffff)
}

func finish(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}

// pseudoSum computes the IPv4 pseudo-header sum for transport checksums.
func pseudoSum(src, dst IPv4, proto uint8, length int) uint32 {
	var acc uint32
	acc += uint32(src >> 16)
	acc += uint32(src & 0xffff)
	acc += uint32(dst >> 16)
	acc += uint32(dst & 0xffff)
	acc += uint32(proto)
	acc += uint32(length)
	return acc
}

// TCPChecksum computes the TCP checksum over seg (header + payload) with
// the given pseudo-header addresses. seg must have a zeroed checksum field
// when computing, or the result is the verification residue.
func TCPChecksum(src, dst IPv4, seg []byte) uint16 {
	return finish(sum1c(seg, pseudoSum(src, dst, ProtoTCP, len(seg))))
}

// VerifyTCPChecksum reports whether seg carries a valid TCP checksum.
//
//ix:hotpath
func VerifyTCPChecksum(src, dst IPv4, seg []byte) bool {
	return finish(sum1c(seg, pseudoSum(src, dst, ProtoTCP, len(seg)))) == 0
}

// SetTCPChecksum computes and stores the checksum into the assembled TCP
// segment seg (which begins with the TCP header).
//
//ix:hotpath
func SetTCPChecksum(src, dst IPv4, seg []byte) { SetTCPChecksumv(src, dst, seg, nil) }

// SetTCPChecksumv is SetTCPChecksum for a segment held in two pieces:
// seg begins with the TCP header and payload follows it on the wire.
// seg's length is a whole number of 16-bit words (a TCP header's always
// is), so the two partial sums add without shifting a byte.
//
//ix:hotpath
func SetTCPChecksumv(src, dst IPv4, seg, payload []byte) {
	seg[16], seg[17] = 0, 0
	acc := sum1c(seg, pseudoSum(src, dst, ProtoTCP, len(seg)+len(payload)))
	binary.BigEndian.PutUint16(seg[16:18], finish(sum1c(payload, acc)))
}

// WireLen returns the on-the-wire size in bytes of an Ethernet frame whose
// L2 length (header+payload, no FCS) is n, including preamble, FCS, IFG
// and minimum-frame padding. Used by the fabric to compute serialization
// delay.
func WireLen(n int) int {
	if n < EthMinFrame {
		n = EthMinFrame
	}
	return n + EthOverhead
}
