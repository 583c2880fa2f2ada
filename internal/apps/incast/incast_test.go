package incast

import "testing"

// TestMetricsRoundAccounting: every round settles into RoundsDone or
// RoundsFailed no matter how senders account for it, and the tracking
// drains (bounded memory under churn).
func TestMetricsRoundAccounting(t *testing.T) {
	m := NewMetrics()
	m.Senders = 3

	// Clean round: all enter, all finish.
	for i := 0; i < 3; i++ {
		m.enter(0, 100)
	}
	for i := 0; i < 3; i++ {
		m.finish(0, int64(200+i))
	}
	if m.RoundsDone.Total() != 1 || m.RoundsFailed.Total() != 0 {
		t.Fatalf("clean round: done=%d failed=%d", m.RoundsDone.Total(), m.RoundsFailed.Total())
	}

	// One sender dead at the barrier: two enter, one skips. The round
	// fails once and settles after the enterers finish or move on.
	m.enter(1, 300)
	m.enter(1, 300)
	m.skip(1)
	m.finish(1, 400)
	m.finish(1, 410)
	if m.RoundsFailed.Total() != 1 {
		t.Fatalf("skipped round not failed: %d", m.RoundsFailed.Total())
	}

	// Overrun: all enter, none finish before the next barrier fails it.
	for i := 0; i < 3; i++ {
		m.enter(2, 500)
	}
	m.fail(2)
	if m.RoundsFailed.Total() != 2 {
		t.Fatalf("overrun round not failed: %d", m.RoundsFailed.Total())
	}
	// A straggler's late finish on the settled round must not resurrect
	// its tracking.
	m.finish(2, 600)

	// Nobody makes a barrier (all reconnecting): pure-skip round.
	for i := 0; i < 3; i++ {
		m.skip(3)
	}
	if m.RoundsFailed.Total() != 3 {
		t.Fatalf("pure-skip round not failed: %d", m.RoundsFailed.Total())
	}

	if len(m.rounds) != 0 {
		t.Fatalf("round tracking not drained: %d rounds left", len(m.rounds))
	}
	if m.RoundsDone.Total() != 1 {
		t.Fatalf("done = %d, want 1", m.RoundsDone.Total())
	}
}
