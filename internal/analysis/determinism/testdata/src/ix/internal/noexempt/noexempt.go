// Package noexempt is the determinism-analyzer fixture for the rule that
// no package is exempt: it sits under ix/internal/ and looks like an
// OS-thread runtime — workers, a barrier, wall-clock idle telemetry —
// and every check fires on it exactly as on any other sim-visible
// package.
package noexempt

import (
	"math/rand"
	"sync"        // want `import "sync" in sim-visible package`
	"sync/atomic" // want `import "sync/atomic" in sim-visible package`
	"time"
)

type runtime struct {
	mu    sync.Mutex
	idle  time.Duration
	posts atomic.Uint64
	queue map[int][]int
}

func (r *runtime) spawnWorkers(n int, body func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) { // want `go statement in sim-visible package`
			defer wg.Done()
			body(id)
		}(i)
	}
	wg.Wait()
}

func (r *runtime) barrierIdle(f func()) {
	t0 := time.Now() // want `time\.Now in sim-visible package`
	f()
	r.mu.Lock()
	r.idle += time.Since(t0) // want `time\.Since in sim-visible package`
	r.mu.Unlock()
}

func (r *runtime) post() { r.posts.Add(1) }

func (r *runtime) shuffleSeq(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global rand\.Shuffle in sim-visible package`
}

func (r *runtime) drainUnordered(deliver func(int)) {
	for _, posts := range r.queue { // want `range over a map in sim-visible package`
		for _, p := range posts {
			deliver(p)
		}
	}
}
