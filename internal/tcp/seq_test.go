package tcp

import (
	"testing"
	"testing/quick"
)

// TestSeqOrderNearWrap: comparisons behave across the 2³² wrap.
func TestSeqOrderNearWrap(t *testing.T) {
	const max = ^uint32(0)
	cases := []struct {
		a, b uint32
		lt   bool
	}{
		{1, 2, true},
		{max, 0, true}, // wrap: max < 0
		{max - 5, max, true},
		{0, max, false},
		{100, 100, false},
	}
	for _, c := range cases {
		if seqLT(c.a, c.b) != c.lt {
			t.Errorf("seqLT(%d,%d) = %v, want %v", c.a, c.b, !c.lt, c.lt)
		}
	}
}

// TestSeqProperties: antisymmetry and consistency of the helpers for
// sequence numbers within half the space of each other (the domain TCP
// guarantees).
func TestSeqProperties(t *testing.T) {
	f := func(base uint32, delta uint16) bool {
		a := base
		b := base + uint32(delta)
		if delta == 0 {
			return seqLE(a, b) && seqGE(a, b) && !seqLT(a, b) && !seqGT(a, b)
		}
		return seqLT(a, b) && seqGT(b, a) && seqLE(a, b) && seqGE(b, a) &&
			seqDiff(b, a) == int32(delta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSeqInWindowProperty: membership matches the arithmetic definition.
func TestSeqInWindowProperty(t *testing.T) {
	f := func(start uint32, size uint16, off uint16) bool {
		s := uint32(size)
		seq := start + uint32(off)
		want := uint32(off) < s
		return seqInWindow(seq, start, s) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
