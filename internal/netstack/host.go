package netstack

import (
	"time"

	"ix/internal/cost"
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/wire"
)

// Host is the shell the three host models embed (core.Dataplane,
// linuxstack.Host and mtcpstack.Host): the address, the NIC, the ARP
// table, the memory region every core's pools draw from, and what a
// handshake frame costs in LLC misses. It makes every queue pair, stack
// and TX chunk pool of the host and keeps them, in creation order, for
// the host's sums.
type Host struct {
	ip     wire.IPv4
	mac    wire.MAC
	now    func() int64
	nic    *nicsim.NIC
	arp    *ARPTable
	region *mem.Region
	// missFloor is the handshake-frame miss charge, a run constant.
	missFloor time.Duration

	stacks []*Stack
	qps    []*Driver
	txs    []*mem.TxChunkPool
}

// NewHost builds the shell of a host of cores cores, each with one NIC
// queue pair (nc's Queues is set to the count), and a grant of pages
// large pages. A count of zero or less takes the default: 1 core, or 512
// pages (1 GB). l3Miss is the host's cost of one LLC miss. NewHost
// returns the shell and the core count.
func NewHost(eng *sim.Engine, ip wire.IPv4, mac wire.MAC, cores, pages int, nc nicsim.Config, l3Miss time.Duration) (Host, int) {
	cores = max(cores, 1)
	if pages <= 0 {
		pages = 512
	}
	nc.Queues = cores
	return Host{
		ip:        ip,
		mac:       mac,
		now:       func() int64 { return int64(eng.Now()) },
		nic:       nicsim.New(eng, mac, nc),
		arp:       NewARPTable(),
		region:    mem.NewRegion(pages),
		missFloor: time.Duration(cost.MissesPerMsg(0) * float64(l3Miss)),
	}, cores
}

// IP returns the host address.
func (h *Host) IP() wire.IPv4 { return h.ip }

// MAC returns the hardware address.
func (h *Host) MAC() wire.MAC { return h.mac }

// NIC returns the host NIC (for fabric attachment).
func (h *Host) NIC() *nicsim.NIC { return h.nic }

// ARP returns the host's shared ARP table (preloaded by the harness, as
// a warmed-up testbed would be).
func (h *Host) ARP() *ARPTable { return h.arp }

// Region returns the host's large-page memory.
func (h *Host) Region() *mem.Region { return h.region }

// NewStack builds a stack of the host from cfg, whose address, ARP
// table and clock are the host's, and keeps it.
func (h *Host) NewStack(cfg Config) *Stack {
	cfg.LocalIP, cfg.LocalMAC, cfg.ARP, cfg.Now = h.ip, h.mac, h.arp, h.now
	s := New(cfg)
	h.stacks = append(h.stacks, s)
	return s
}

// QueuePair returns the driver of NIC queue pair i, with an mbuf pool of
// its own and price as its per-frame cost, and keeps it.
func (h *Host) QueuePair(i int, price func(*fabric.Frame) time.Duration) *Driver {
	d := &Driver{
		RX:    h.nic.RxQueue(i),
		TX:    h.nic.TxQueue(i),
		Pool:  mem.NewMbufPool(h.region, i),
		Price: price,
	}
	h.qps = append(h.qps, d)
	return d
}

// TxPool returns a TX chunk pool tagged owner that draws from region,
// and keeps it.
func (h *Host) TxPool(region *mem.Region, owner int) *mem.TxChunkPool {
	p := mem.NewTxChunkPool(region, owner)
	h.txs = append(h.txs, p)
	return p
}

// RepliesTo is the ephemeral-port filter of a stack served by queue q: a
// local port passes when the reply to the flow RSS-hashes to q (§4.4).
func (h *Host) RepliesTo(q int) func(port uint16, dst wire.IPv4, dport uint16) bool {
	nic, ip := h.nic, h.ip
	return func(p uint16, dst wire.IPv4, dport uint16) bool {
		ret := wire.FlowKey{SrcIP: dst, DstIP: ip, SrcPort: dport, DstPort: p, Proto: wire.ProtoTCP}
		return nic.RSSQueue(ret) == q
	}
}

// ConnCount sums the live connections of every stack of the host.
func (h *Host) ConnCount() int {
	n := 0
	for _, s := range h.stacks {
		n += s.TCP().ConnCount()
	}
	return n
}

// EachStack calls fn with every stack of the host, in creation order.
func (h *Host) EachStack(fn func(*Stack)) {
	for _, s := range h.stacks {
		fn(s)
	}
}

// MbufsInUse sums the receive mbufs still referenced across every queue
// pair's pool: zero once traffic has quiesced.
func (h *Host) MbufsInUse() int {
	n := 0
	for _, d := range h.qps {
		n += d.Pool.InUse()
	}
	return n
}

// TxChunksInUse sums the TX arena chunks held across every chunk pool
// of the host: zero once every send is acknowledged and every dead
// connection's arena released.
func (h *Host) TxChunksInUse() int {
	n := 0
	for _, p := range h.txs {
		n += p.InUse()
	}
	return n
}

// PoolDrops sums the received frames every queue pair released because
// its mbuf pool was dry.
func (h *Host) PoolDrops() (n uint64) {
	for _, d := range h.qps {
		n += d.PoolDrops
	}
	return n
}

// Miss is the LLC-miss charge for receiving f, where established
// traffic charges miss. A handshake frame charges the ≤10k-connection
// floor instead, whatever the population: SYN/SYN-ACK processing touches
// the listener, the SYN backlog and a fresh PCB, which stay LLC-resident
// across an establishment burst, not the established-connection working
// set the DDIO curve models (batched SYN admission).
//
//ix:hotpath
func (h *Host) Miss(f *fabric.Frame, miss time.Duration) time.Duration {
	if nicsim.IsTCPSYN(f.Data) {
		return h.missFloor
	}
	return miss
}
