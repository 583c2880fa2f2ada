package nicsim

import "ix/internal/wire"

// DefaultRSSKey is the canonical Microsoft RSS verification key, the same
// default the Intel 82599 and ixgbe use.
var DefaultRSSKey = [40]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// rssTable is the byte-indexed Toeplitz lookup table for the 12-byte
// TCP/UDP IPv4 tuple. The Toeplitz hash is linear over input bits, so the
// hash is the XOR of one per-position table entry per input byte — this is
// how software RSS implementations (e.g. DPDK) avoid the bit-serial loop
// on the classification hot path.
type rssTable [12][256]uint32

// keyWindow returns the 32-bit window of key starting at bit offset off,
// zero-padded beyond the key.
func keyWindow(key []byte, off int) uint32 {
	bo, r := off/8, uint(off%8)
	var v uint64
	for i := 0; i < 5; i++ {
		v <<= 8
		if bo+i < len(key) {
			v |= uint64(key[bo+i])
		}
	}
	return uint32(v >> (8 - r))
}

// buildRSSTable precomputes the per-byte contribution table for key.
func buildRSSTable(key []byte) *rssTable {
	var t rssTable
	for pos := 0; pos < 12; pos++ {
		for bit := 0; bit < 8; bit++ {
			w := keyWindow(key, pos*8+bit)
			mask := 0x80 >> uint(bit)
			for v := 0; v < 256; v++ {
				if v&mask != 0 {
					t[pos][v] ^= w
				}
			}
		}
	}
	return &t
}

// hash computes the Toeplitz hash of the flow tuple via table lookups:
// for every set bit of the 82599's tuple (srcIP, dstIP, srcPort, dstPort,
// network byte order), the XOR of the key's 32-bit window at that bit.
func (t *rssTable) hash(k wire.FlowKey) uint32 {
	return t[0][byte(k.SrcIP>>24)] ^
		t[1][byte(k.SrcIP>>16)] ^
		t[2][byte(k.SrcIP>>8)] ^
		t[3][byte(k.SrcIP)] ^
		t[4][byte(k.DstIP>>24)] ^
		t[5][byte(k.DstIP>>16)] ^
		t[6][byte(k.DstIP>>8)] ^
		t[7][byte(k.DstIP)] ^
		t[8][byte(k.SrcPort>>8)] ^
		t[9][byte(k.SrcPort)] ^
		t[10][byte(k.DstPort>>8)] ^
		t[11][byte(k.DstPort)]
}
