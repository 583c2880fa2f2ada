package echo

import (
	"testing"
	"unsafe"
)

func TestFillPatternDeterministic(t *testing.T) {
	a, b := make([]byte, 256), make([]byte, 256)
	fillPattern(a, 42, 3)
	fillPattern(b, 42, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same (pat, round) produced different bytes")
		}
	}
	fillPattern(b, 42, 4)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different rounds produced identical patterns")
	}
}

func TestFnvStreamSumPositionSensitive(t *testing.T) {
	// The whole-transfer checksum must catch reordering, not just byte
	// histograms: FNV-1a over a stream is position-sensitive.
	x := fnvAdd(fnvAdd(uint64(fnvOffset), []byte("ab")), []byte("cd"))
	y := fnvAdd(fnvAdd(uint64(fnvOffset), []byte("cd")), []byte("ab"))
	if x == y {
		t.Fatal("stream checksum insensitive to segment order")
	}
	z := fnvAdd(uint64(fnvOffset), []byte("abcd"))
	if x != z {
		t.Fatal("chunking changed the stream checksum")
	}
}

func TestZerosReuse(t *testing.T) {
	var zb []byte
	a := zeros(&zb, 64)
	b := zeros(&zb, 128)
	if len(a) != 64 || len(b) != 128 {
		t.Fatal("zeros sizing broken")
	}
	for _, x := range b {
		if x != 0 {
			t.Fatal("zeros not zero")
		}
	}
}

func TestMetricsWindow(t *testing.T) {
	m := NewMetrics()
	m.Msgs.Add(10)
	m.ResetWindow()
	m.Msgs.Add(5)
	if m.Msgs.Since() != 5 || m.Msgs.Total() != 15 {
		t.Fatal("window accounting broken")
	}
}

// TestConnStateSizes pins the per-connection client state: one exists
// per open connection of a Fig. 4 fleet, so growth is a reviewed
// decision (DESIGN.md, "Per-connection memory budget").
func TestConnStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(clientConn{}); got > 32 {
		t.Fatalf("echo.clientConn is %d bytes, budget 32", got)
	}
}
