package layers

import "testing"

// TestFixtures sets every micro-benchmark up and performs a few calls:
// the fixtures panic when a layer stops behaving (a handshake that does
// not complete, a stream that loses bytes), so this is also a smoke test
// of the public entry points they time.
func TestFixtures(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range All {
		if seen[b.Name] || (b.Unit != "ns" && b.Unit != "ms") {
			t.Errorf("%s: duplicate name or unknown unit %q", b.Name, b.Unit)
		}
		seen[b.Name] = true
		if testing.Short() && (b.Name == "tcp.input_demux_250k" || b.Name == "timerwheel.next_deadline_250k") {
			continue
		}
		if done := b.Setup()(3); done < 3 {
			t.Errorf("%s: performed %d calls, want at least 3", b.Name, done)
		}
	}
}

func TestRunReportsMedian(t *testing.T) {
	calls := 0
	r := Run(Bench{Name: "x", Unit: "ns", Setup: func() func(int) int {
		return func(n int) int {
			for i := 0; i < n; i++ {
				sink += uint64(i)
			}
			calls += n
			return n
		}
	}})
	if r.PerCall <= 0 || r.Min > r.PerCall || r.PerCall > r.Max || r.Batches != batches || calls == 0 {
		t.Fatalf("Run = %+v", r)
	}
}
