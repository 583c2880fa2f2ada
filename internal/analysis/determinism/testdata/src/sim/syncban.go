package sim

// --- red: sync primitives ---
//
// A mutex or atomic in a sim-visible package means state is shared
// across goroutines, which the single-goroutine simulation never does.
// Shared sinks (stats counters) are plain fields.

import (
	"sync"        // want `import "sync" in sim-visible package`
	"sync/atomic" // want `import "sync/atomic" in sim-visible package`
)

type counters struct {
	mu sync.Mutex
	n  atomic.Uint64
}

func (c *counters) bump() {
	c.mu.Lock()
	c.n.Add(1)
	c.mu.Unlock()
}

// --- red: goroutines ---

func spawnWorker(fn func()) {
	go fn() // want `go statement in sim-visible package`
}
