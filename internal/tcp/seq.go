package tcp

// Sequence-number arithmetic modulo 2³², per RFC 793. These helpers are
// property-tested (wraparound is where TCP implementations rot).

// seqLT reports a < b in sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLE reports a ≤ b in sequence space.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// seqGT reports a > b in sequence space.
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }

// seqGE reports a ≥ b in sequence space.
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }

// seqDiff returns a - b as a signed distance.
func seqDiff(a, b uint32) int32 { return int32(a - b) }

// seqInWindow reports whether seq falls within [start, start+size).
func seqInWindow(seq, start uint32, size uint32) bool {
	return seqGE(seq, start) && seqLT(seq, start+size)
}
