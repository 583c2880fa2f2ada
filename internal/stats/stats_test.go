package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); m < 48*time.Microsecond || m > 53*time.Microsecond {
		t.Fatalf("mean = %v, want ~50.5µs", m)
	}
	p50 := h.Quantile(0.5)
	if p50 < 45*time.Microsecond || p50 > 55*time.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90*time.Microsecond || p99 > 100*time.Microsecond {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Max() != 100*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}

	// Record → Merge → Reset → Record: the summary fields come back
	// exactly at every step.
	check := func(step string, h *Histogram, n uint64, max, mean time.Duration) {
		t.Helper()
		if h.Count() != n || h.Max() != max || h.Mean() != mean {
			t.Fatalf("%s: count/max/mean = %d/%v/%v, want %d/%v/%v",
				step, h.Count(), h.Max(), h.Mean(), n, max, mean)
		}
	}
	o := NewHistogram()
	check("empty", o, 0, 0, 0)
	o.Record(-5) // negative samples clamp to 0
	o.Record(7 * time.Nanosecond)
	check("record", o, 2, 7, 3)
	h.Merge(o)
	check("merge", h, 102, 100*time.Microsecond, 49509)
	h.Merge(NewHistogram())
	check("merge empty", h, 102, 100*time.Microsecond, 49509)
	h.Reset()
	check("reset", h, 0, 0, 0)
	h.Record(3 * time.Millisecond)
	h.Record(5 * time.Millisecond)
	check("record after reset", h, 2, 5*time.Millisecond, 4*time.Millisecond)
}

// TestQuantileBounds: quantiles are within the recorded range and
// monotone in q, for arbitrary sample sets.
func TestQuantileBounds(t *testing.T) {
	// Bucket boundaries, pinned value by value. The expected indices are
	// literals recorded from a reference run, not recomputed from
	// bucketOf's own formula, so a change to the exponent arithmetic
	// cannot move them silently.
	for _, c := range []struct {
		v int64
		b int
	}{{0, 1}, {1, 1}, {31, 31}, {32, 32}, {33, 33}, {math.MaxInt64, 1887}} {
		if got := bucketOf(c.v); got != c.b {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.b)
		}
	}
	for _, c := range []struct{ k, below, at, above int }{ // 2^k-1, 2^k, 2^k+1
		{1, 1, 2, 3},
		{2, 3, 4, 5},
		{3, 7, 8, 9},
		{4, 15, 16, 17},
		{5, 31, 32, 33},
		{6, 63, 64, 64},
		{7, 95, 96, 96},
		{8, 127, 128, 128},
		{9, 159, 160, 160},
		{10, 191, 192, 192},
		{11, 223, 224, 224},
		{12, 255, 256, 256},
		{13, 287, 288, 288},
		{14, 319, 320, 320},
		{15, 351, 352, 352},
		{16, 383, 384, 384},
		{17, 415, 416, 416},
		{18, 447, 448, 448},
		{19, 479, 480, 480},
		{20, 511, 512, 512},
		{21, 543, 544, 544},
		{22, 575, 576, 576},
		{23, 607, 608, 608},
		{24, 639, 640, 640},
		{25, 671, 672, 672},
		{26, 703, 704, 704},
		{27, 735, 736, 736},
		{28, 767, 768, 768},
		{29, 799, 800, 800},
		{30, 831, 832, 832},
		{31, 863, 864, 864},
		{32, 895, 896, 896},
		{33, 927, 928, 928},
		{34, 959, 960, 960},
		{35, 991, 992, 992},
		{36, 1023, 1024, 1024},
		{37, 1055, 1056, 1056},
		{38, 1087, 1088, 1088},
		{39, 1119, 1120, 1120},
		{40, 1151, 1152, 1152},
		{41, 1183, 1184, 1184},
		{42, 1215, 1216, 1216},
		{43, 1247, 1248, 1248},
		{44, 1279, 1280, 1280},
		{45, 1311, 1312, 1312},
		{46, 1343, 1344, 1344},
		{47, 1375, 1376, 1376},
		{48, 1407, 1408, 1408},
		{49, 1439, 1440, 1440},
		{50, 1471, 1472, 1472},
		{51, 1503, 1504, 1504},
		{52, 1535, 1536, 1536},
		{53, 1567, 1568, 1568},
		{54, 1599, 1600, 1600},
		{55, 1631, 1632, 1632},
		{56, 1663, 1664, 1664},
		{57, 1695, 1696, 1696},
		{58, 1727, 1728, 1728},
		{59, 1759, 1760, 1760},
		{60, 1791, 1792, 1792},
		{61, 1823, 1824, 1824},
		{62, 1855, 1856, 1856},
	} {
		p := int64(1) << uint(c.k)
		if b, a, ab := bucketOf(p-1), bucketOf(p), bucketOf(p+1); b != c.below || a != c.at || ab != c.above {
			t.Errorf("bucketOf(2^%d -1/+0/+1) = %d/%d/%d, want %d/%d/%d", c.k, b, a, ab, c.below, c.at, c.above)
		}
	}

	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram()
		min, max := time.Duration(1<<62), time.Duration(0)
		for _, s := range samples {
			d := time.Duration(s)
			h.Record(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		last := time.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v > max || v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileAccuracy: relative error bounded by the bucket scheme.
func TestQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	const v = 123456 * time.Nanosecond
	for i := 0; i < 1000; i++ {
		h.Record(v)
	}
	got := h.Quantile(0.99)
	err := float64(got-v) / float64(v)
	if err < -0.05 || err > 0.05 {
		t.Fatalf("p99 of constant %v = %v (err %.3f)", v, got, err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(10 * time.Microsecond)
	b.Record(20 * time.Microsecond)
	a.Merge(b)
	if a.Count() != 2 || a.Max() != 20*time.Microsecond {
		t.Fatalf("merge: %v", a)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestCounterWindow(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Reset()
	c.Add(5)
	if c.Since() != 5 || c.Total() != 15 {
		t.Fatalf("since=%d total=%d", c.Since(), c.Total())
	}
}

func TestRate(t *testing.T) {
	if r := Rate(1000, time.Millisecond); r != 1e6 {
		t.Fatalf("rate = %v", r)
	}
	if Rate(5, 0) != 0 {
		t.Fatal("zero window should give zero rate")
	}
}
