// Package harness builds the paper's experimental setup (§5.1) — a
// cluster of client machines and one server connected by a 48-port 10GbE
// cut-through switch — and defines one function per table and figure of
// the evaluation, each returning the data series the paper plots.
package harness

import (
	"fmt"
	"time"

	"ix/internal/app"
	"ix/internal/core"
	"ix/internal/cost"
	"ix/internal/fabric"
	"ix/internal/faults"
	"ix/internal/libix"
	"ix/internal/linuxstack"
	"ix/internal/memprobe"
	"ix/internal/mtcpstack"
	"ix/internal/netstack"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/sockcore"
	"ix/internal/wire"
)

// Arch selects an OS architecture for a host.
type Arch int

// Architectures under comparison.
const (
	ArchIX Arch = iota
	ArchLinux
	ArchMTCP
)

func (a Arch) String() string {
	switch a {
	case ArchIX:
		return "IX"
	case ArchLinux:
		return "Linux"
	case ArchMTCP:
		return "mTCP"
	}
	return "?"
}

// Host is what the cluster plumbing and the conservation checks use of a
// machine; the three host models implement it directly.
type Host interface {
	NIC() *nicsim.NIC
	ARP() *netstack.ARPTable
	IP() wire.IPv4
	MAC() wire.MAC
	Start()
	// ConnCount is the host's live connections.
	ConnCount() int
	// Footprint samples the host's per-connection memory under the
	// memprobe contract (read-only; never perturbs the simulation).
	Footprint() memprobe.Footprint
	// MbufsInUse is the receive mbufs still referenced.
	MbufsInUse() int
	// TxChunksInUse is the TX arena chunks still held.
	TxChunksInUse() int
	// EachStack calls fn with every network stack of the host.
	EachStack(fn func(*netstack.Stack))
}

var (
	_ Host = (*core.Dataplane)(nil)
	_ Host = (*linuxstack.Host)(nil)
	_ Host = (*mtcpstack.Host)(nil)
)

// HostSpec describes one machine.
type HostSpec struct {
	Arch    Arch
	Cores   int
	Factory app.Factory
	// Ports is the number of 10GbE NIC ports (4 = the bonded 4x10GbE
	// server configuration).
	Ports int
	// BatchBound is IX's B (ignored elsewhere).
	BatchBound int
	// MaxThreads provisions extra NIC queue pairs beyond Cores so the
	// control plane can grow an IX dataplane (ignored elsewhere).
	MaxThreads int
	// IXCost optionally overrides the IX cost model (ablations).
	IXCost *cost.IX
	// MinRTO optionally overrides the TCP retransmission-timeout floor
	// (default 200 µs; the paper cites support for 16 µs incast floors).
	MinRTO time.Duration
	// ExpectedConns presizes the host's connection tables (TCP engine,
	// syscall gate / socket table, user-library cookie table) for the
	// anticipated steady-state flow population (0 = grow on demand).
	ExpectedConns int
}

// Cluster is the experiment testbed.
type Cluster struct {
	// Eng is the one engine every host, link and the switch run on.
	Eng    *sim.Engine
	Switch *fabric.Switch

	hosts []Host
	// links[i] holds host i's cables, in port order: Port(0) faces the
	// host NIC, Port(1) faces the switch.
	links   [][]*fabric.Link
	sites   []*faults.Site
	ixs     []*core.Dataplane
	linuxes []*linuxstack.Host
	mtcps   []*mtcpstack.Host

	nextIP  uint32
	nextMAC uint64
	seed    uint64
}

// LinkBandwidth is one 10GbE port.
const LinkBandwidth = 10 * fabric.Gbps

// linkLatency is NIC traversal plus propagation, one way.
const linkLatency = fabric.NICLatency + fabric.PropDelay

// NewCluster creates an empty testbed.
func NewCluster(seed int64) *Cluster {
	eng := sim.NewEngine(seed)
	return &Cluster{
		Eng:     eng,
		Switch:  fabric.NewSwitch(eng),
		nextIP:  uint32(wire.Addr4(10, 10, 0, 10)),
		nextMAC: 0x02_00_00_00_00_10,
		seed:    uint64(seed)*0x9e3779b97f4a7c15 + 1,
	}
}

func (c *Cluster) nextAddrs() (wire.IPv4, wire.MAC) {
	ip := wire.IPv4(c.nextIP)
	c.nextIP++
	var mac wire.MAC
	v := c.nextMAC
	c.nextMAC++
	for i := 5; i >= 0; i-- {
		mac[i] = byte(v)
		v >>= 8
	}
	return ip, mac
}

// AddHost builds a machine per spec and cables it to the switch. The
// name labels nothing: hosts are known by the Host they return.
func (c *Cluster) AddHost(name string, spec HostSpec) Host {
	ip, mac := c.nextAddrs()
	if spec.Ports <= 0 {
		spec.Ports = 1
	}
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	c.seed = c.seed*6364136223846793005 + 1442695040888963407
	seed := c.seed
	var h Host
	switch spec.Arch {
	case ArchIX:
		ccfg := core.Config{
			IP:         ip,
			MAC:        mac,
			Threads:    spec.Cores,
			MaxThreads: spec.MaxThreads,
			BatchBound: spec.BatchBound,
			Seed:       seed,
			MinRTO:     spec.MinRTO,
			User:       libix.Program(spec.Factory),

			ExpectedConns: spec.ExpectedConns,
		}
		if spec.IXCost != nil {
			ccfg.Cost = *spec.IXCost
		}
		dp := core.New(c.Eng, ccfg)
		c.ixs = append(c.ixs, dp)
		h = dp
	case ArchLinux, ArchMTCP:
		bcfg := sockcore.Config{
			IP:      ip,
			MAC:     mac,
			Cores:   spec.Cores,
			Factory: spec.Factory,
			Seed:    seed,
			MinRTO:  spec.MinRTO,

			ExpectedConns: spec.ExpectedConns,
		}
		if spec.Arch == ArchLinux {
			lh := linuxstack.New(c.Eng, bcfg)
			c.linuxes = append(c.linuxes, lh)
			h = lh
		} else {
			mh := mtcpstack.New(c.Eng, bcfg)
			c.mtcps = append(c.mtcps, mh)
			h = mh
		}
	default:
		panic(fmt.Sprintf("harness: unknown arch %d", spec.Arch))
	}
	// Cable the NIC's ports to the switch.
	var portIdxs []int
	var hostLinks []*fabric.Link
	for p := 0; p < spec.Ports; p++ {
		link := fabric.NewLink(c.Eng, LinkBandwidth, linkLatency)
		h.NIC().AttachPort(link.Port(0))
		idx := c.Switch.AddPort(link.Port(1))
		portIdxs = append(portIdxs, idx)
		hostLinks = append(hostLinks, link)
	}
	if spec.Ports == 1 {
		c.Switch.Learn(mac, portIdxs[0])
	} else {
		c.Switch.Bond(mac, portIdxs)
	}
	c.hosts = append(c.hosts, h)
	c.links = append(c.links, hostLinks)
	c.sites = append(c.sites, nil)
	return h
}

// hostIndex finds h's position in the cluster.
func (c *Cluster) hostIndex(h Host) int {
	for i, o := range c.hosts {
		if o == h {
			return i
		}
	}
	panic("harness: host not in cluster")
}

// HostLinks returns the cables of h, in NIC-port order. Port(0) of each
// link faces the host, Port(1) the switch.
func (c *Cluster) HostLinks(h Host) []*fabric.Link {
	return c.links[c.hostIndex(h)]
}

// Faults returns (attaching on first use) the fault-injection site
// covering both directions of every cable of h. Injector seeds derive
// from the cluster seed chain, so a fixed-seed run replays the same
// fault schedule byte for byte.
func (c *Cluster) Faults(h Host) *faults.Site {
	idx := c.hostIndex(h)
	if c.sites[idx] == nil {
		site := &faults.Site{}
		for _, link := range c.links[idx] {
			c.seed = c.seed*6364136223846793005 + 1442695040888963407
			// Port(0)'s endpoint is the host NIC: impairs traffic
			// toward the host. Port(1)'s endpoint is the switch:
			// impairs traffic from the host.
			site.Injectors = append(site.Injectors,
				faults.Interpose(c.Eng, link.Port(0), c.seed),
				faults.Interpose(c.Eng, link.Port(1), c.seed^0xa5a5a5a5a5a5a5a5))
		}
		c.sites[idx] = site
	}
	return c.sites[idx]
}

// LimitEgress bounds the switch egress buffer toward h to n bytes per
// port — the shallow-buffer configuration incast experiments need (the
// default fabric queues without bound, so drops happen only at the NIC
// edge, §3).
func (c *Cluster) LimitEgress(h Host, n int) {
	for _, link := range c.HostLinks(h) {
		link.Port(1).SetTxBuffer(n)
	}
}

// EgressDrops sums frames tail-dropped at the switch egress toward h.
func (c *Cluster) EgressDrops(h Host) uint64 {
	var n uint64
	for _, link := range c.HostLinks(h) {
		n += link.Port(1).TxDropped
	}
	return n
}

// eachStack calls fn with every network stack of every host.
func (c *Cluster) eachStack(fn func(*netstack.Stack)) {
	for _, h := range c.hosts {
		h.EachStack(fn)
	}
}

// FramesInUse sums outstanding frames across every stack's pool: the
// cluster-wide frame-conservation invariant. After traffic quiesces it
// must return to zero — a dropped, duplicated or delayed frame that
// leaks (or double-frees, which panics in fabric) shows up here.
func (c *Cluster) FramesInUse() int {
	n := 0
	c.eachStack(func(s *netstack.Stack) { n += s.FramePool().InUse() })
	return n
}

// TxChunksInUse sums TX arena chunks held across every host — IX
// threads, Linux hosts and mTCP cores alike: the transmit-memory
// conservation invariant. Once traffic has quiesced (all sends
// acknowledged, dead connections torn down) it must return to zero — a
// teardown path that fails to release a connection's arena shows up
// here.
func (c *Cluster) TxChunksInUse() int {
	n := 0
	for _, h := range c.hosts {
		n += h.TxChunksInUse()
	}
	return n
}

// Leaks is the cluster's pool imbalance: frames, receive mbufs and TX
// arena chunks still in use. Once traffic has quiesced every count must
// be zero — an mbuf held past its last reader also holds the frame it
// adopted.
type Leaks struct{ Frames, Mbufs, TxChunks int }

// Leaks reads the three conservation counts at once.
func (c *Cluster) Leaks() Leaks {
	l := Leaks{Frames: c.FramesInUse(), TxChunks: c.TxChunksInUse()}
	for _, h := range c.hosts {
		l.Mbufs += h.MbufsInUse()
	}
	return l
}

// HostFootprint samples one host's per-connection memory under the
// memprobe contract: live connections and the bytes they pin across
// every layer of that host's stack. Read-only — safe to call between
// engine steps without perturbing fixed-seed output.
func (c *Cluster) HostFootprint(h Host) memprobe.Footprint { return h.Footprint() }

// IXServer returns the i-th IX dataplane added.
func (c *Cluster) IXServer(i int) *core.Dataplane { return c.ixs[i] }

// LinuxHost returns the i-th Linux host added.
func (c *Cluster) LinuxHost(i int) *linuxstack.Host { return c.linuxes[i] }

// MTCPHost returns the i-th mTCP host added.
func (c *Cluster) MTCPHost(i int) *mtcpstack.Host { return c.mtcps[i] }

// Start preloads every host's ARP table with every other host (a warmed
// testbed — the paper's experiments run after connectivity is
// established) and starts all hosts.
func (c *Cluster) Start() {
	for _, a := range c.hosts {
		for _, b := range c.hosts {
			if a != b {
				a.ARP().Learn(b.IP(), b.MAC())
			}
		}
	}
	for _, h := range c.hosts {
		h.Start()
	}
	// Topology is complete: freeze the switch tables so no frame can
	// ever observe a partially built FDB.
	c.Switch.Seal()
}

// Run advances the simulation by d.
func (c *Cluster) Run(d time.Duration) { c.Eng.RunFor(d) }
