// Package memprobe defines the per-connection memory accounting
// contract behind the Fig. 4 bytes/conn budget. A Footprint is a
// deterministic sum of the live bytes a layer holds *per connection*:
// struct sizes via unsafe.Sizeof plus the capacities of growable
// per-conn storage (retransmit-queue backing, receive/send buffers,
// zero-copy arena chunks, pending timer nodes, cookie-table slots).
//
// The contract is additive and layer-local: each layer reports only the
// bytes it owns (the TCP engine its PCBs, the socket adapters their
// buffers, libix its per-flow descriptors), and the harness sums the
// layers of one host. Pooled free objects — recycled conns, timer
// free lists, arena chunks parked in their pool — are amortized across
// the population and deliberately excluded: the budget measures what an
// *established connection* pins, not what the host provisioned.
//
// Everything here is arithmetic over Go-visible state, so a probe never
// perturbs the simulation: sampling a Footprint between engine steps
// keeps fixed-seed output byte-identical.
package memprobe

// Footprint is a per-host (or per-layer) connection memory tally.
type Footprint struct {
	// Conns is the number of live connections walked.
	Conns int
	// Bytes is the live per-conn bytes summed over those connections.
	Bytes int64
	// Attached counts the in-flight side objects those connections hold
	// right now (retransmission state, reassembly queues, borrowed I/O
	// buffers); their bytes are in Bytes. Zero on a drained host.
	Attached int
	// Pooled counts side objects parked on their owners' free lists —
	// not in Bytes, and bounded by peak concurrency, not population.
	Pooled int
}

// Add accumulates o into f. Layers of one host share a connection
// population, so callers adding a *layer* contribution (adapter bytes
// on top of TCP bytes) should add Bytes only and let the owning layer
// report Conns; AddLayer does that.
func (f *Footprint) Add(o Footprint) {
	f.Conns += o.Conns
	f.AddLayer(o)
}

// AddLayer accumulates a secondary layer's bytes for the same
// connection population (Conns is not double-counted).
func (f *Footprint) AddLayer(o Footprint) {
	f.Bytes += o.Bytes
	f.Attached += o.Attached
	f.Pooled += o.Pooled
}

// PerConn returns bytes per connection, zero for an empty population.
func (f Footprint) PerConn() float64 {
	if f.Conns == 0 {
		return 0
	}
	return float64(f.Bytes) / float64(f.Conns)
}
