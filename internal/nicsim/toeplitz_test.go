package nicsim

import "ix/internal/wire"

// The bit-serial Toeplitz hash is the reference the table-driven RSS hash
// is checked against: the Microsoft verification vectors pin it, and it
// pins the table.

// Toeplitz computes the 32-bit Toeplitz hash of input under key, exactly
// as receive-side scaling hardware does: for every set bit of the input,
// XOR in the 32-bit window of the key starting at that bit position.
func Toeplitz(key []byte, input []byte) uint32 {
	var result uint32
	// window is the leftmost 32 bits of the key, shifted as we consume
	// input bits.
	window := uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
	next := 4 // next key byte to shift in
	bitsLeft := 0
	var pending byte
	for _, b := range input {
		for bit := 7; bit >= 0; bit-- {
			if b&(1<<uint(bit)) != 0 {
				result ^= window
			}
			// Shift the window left by one, pulling in the next key bit.
			if bitsLeft == 0 {
				if next < len(key) {
					pending = key[next]
				} else {
					pending = 0
				}
				next++
				bitsLeft = 8
			}
			window = window<<1 | uint32(pending>>7)
			pending <<= 1
			bitsLeft--
		}
	}
	return result
}

// RSSHash computes the Toeplitz hash of a TCP/UDP IPv4 flow the way the
// 82599 concatenates the tuple: srcIP, dstIP, srcPort, dstPort, all in
// network byte order.
func RSSHash(key []byte, k wire.FlowKey) uint32 {
	var in [12]byte
	in[0] = byte(k.SrcIP >> 24)
	in[1] = byte(k.SrcIP >> 16)
	in[2] = byte(k.SrcIP >> 8)
	in[3] = byte(k.SrcIP)
	in[4] = byte(k.DstIP >> 24)
	in[5] = byte(k.DstIP >> 16)
	in[6] = byte(k.DstIP >> 8)
	in[7] = byte(k.DstIP)
	in[8] = byte(k.SrcPort >> 8)
	in[9] = byte(k.SrcPort)
	in[10] = byte(k.DstPort >> 8)
	in[11] = byte(k.DstPort)
	return Toeplitz(key, in[:])
}
