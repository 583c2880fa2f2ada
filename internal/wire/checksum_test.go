package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// sum1cBE32 is the checksum loop sum1c replaced, kept verbatim as the
// oracle: two big-endian 32-bit words per iteration into a 64-bit
// accumulator. Every 16-bit result of the word-wide sum must match it.
func sum1cBE32(b []byte, acc uint32) uint32 {
	wide := uint64(acc)
	for len(b) >= 8 {
		wide += uint64(binary.BigEndian.Uint32(b[0:4])) + uint64(binary.BigEndian.Uint32(b[4:8]))
		b = b[8:]
	}
	if len(b) >= 4 {
		wide += uint64(binary.BigEndian.Uint32(b[0:4]))
		b = b[4:]
	}
	for len(b) >= 2 {
		wide += uint64(b[0])<<8 | uint64(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		wide += uint64(b[0]) << 8
	}
	// Fold 64 → 32 bits keeping carries; finish folds the rest.
	wide = (wide >> 32) + (wide & 0xffffffff)
	wide = (wide >> 32) + (wide & 0xffffffff)
	return uint32(wide)
}

// sum1cRFC1071 is the literal RFC 1071 §4.1 loop: big-endian byte pairs
// added with end-around carry, an odd trailing byte padded with zero.
func sum1cRFC1071(b []byte, acc uint32) uint32 {
	sum := acc&0xffff + acc>>16
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
		sum = sum&0xffff + sum>>16
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum&0xffff + sum>>16
}

// checkSum1c reports a mismatch between sum1c and both oracles. The
// comparison is on the folded, complemented result: that is the value
// every caller uses, and it tells the one's-complement 0x0000 from 0xffff.
func checkSum1c(t *testing.T, b []byte, acc uint32) {
	t.Helper()
	got := finish(sum1c(b, acc))
	if want := finish(sum1cBE32(b, acc)); got != want {
		t.Fatalf("len %d acc %#x: sum1c %#04x, previous loop %#04x", len(b), acc, got, want)
	}
	if want := finish(sum1cRFC1071(b, acc)); got != want {
		t.Fatalf("len %d acc %#x: sum1c %#04x, RFC 1071 loop %#04x", len(b), acc, got, want)
	}
}

// TestChecksumMatchesOracles runs every length from 0 to 1 600 bytes
// (every odd and even tail, at an aligned and an unaligned start) over
// random, all-zero and all-0xff buffers — the last is the one's-complement
// edge where a sum of ones must fold to 0xffff, never to 0 — with zero and
// nonzero starting sums.
func TestChecksumMatchesOracles(t *testing.T) {
	const maxLen = 1600
	rnd := make([]byte, maxLen+1)
	rand.New(rand.NewSource(1071)).Read(rnd)
	fills := map[string][]byte{
		"random": rnd,
		"zeros":  make([]byte, maxLen+1),
		"ones":   bytes.Repeat([]byte{0xff}, maxLen+1),
	}
	accs := []uint32{0, 1, 0xffff, 0x1_0000, 0x5_fffa, 0xffff_ffff}
	for name, buf := range fills {
		t.Run(name, func(t *testing.T) {
			for n := 0; n <= maxLen; n++ {
				for _, acc := range accs {
					checkSum1c(t, buf[:n], acc)
					checkSum1c(t, buf[1:n+1], acc)
				}
			}
		})
	}
}

// FuzzChecksum: sum1c agrees with both oracles on arbitrary bytes and
// starting sums, and summing a‖b equals summing b onto the sum of a for
// an even-length a (the incremental form the pseudo-header sum relies on).
func FuzzChecksum(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, acc uint32, split uint16) {
		checkSum1c(t, data, acc)
		k := int(split) % (len(data) + 1) &^ 1
		whole := finish(sum1c(data, acc))
		if parts := finish(sum1c(data[k:], sum1c(data[:k], acc))); parts != whole {
			t.Fatalf("len %d split %d acc %#x: incremental %#04x, whole %#04x", len(data), k, acc, parts, whole)
		}
	})
}

// BenchmarkChecksum1460 times the sum over one full-MSS payload.
func BenchmarkChecksum1460(b *testing.B) {
	seg := make([]byte, 1460)
	rand.New(rand.NewSource(1)).Read(seg)
	b.SetBytes(int64(len(seg)))
	for i := 0; i < b.N; i++ {
		sink16 += Checksum(seg)
	}
}

var sink16 uint16

// TestTCPChecksumv: the checksum of a segment held as header plus a
// separate payload is the checksum of the contiguous segment, for every
// payload length parity.
func TestTCPChecksumv(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src, dst := Addr4(10, 0, 0, 1), Addr4(10, 0, 0, 2)
	for _, hdrLen := range []int{TCPHdrLen, TCPHdrLen + 12} {
		for _, n := range []int{0, 1, 2, 63, 64, 1447, 1448} {
			seg := make([]byte, hdrLen+n)
			rng.Read(seg)
			SetTCPChecksum(src, dst, seg)
			split := append([]byte(nil), seg[:hdrLen]...)
			split[16]++ // stale sum: SetTCPChecksumv must rewrite it
			SetTCPChecksumv(src, dst, split, seg[hdrLen:])
			if !bytes.Equal(split, seg[:hdrLen]) {
				t.Fatalf("header %d, payload %d: split sum %x, contiguous %x", hdrLen, n, split[16:18], seg[16:18])
			}
		}
	}
}
