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
// handshake frame costs in LLC misses.
type Host struct {
	ip     wire.IPv4
	mac    wire.MAC
	nic    *nicsim.NIC
	arp    *ARPTable
	region *mem.Region
	// missFloor is the handshake-frame miss charge, a run constant.
	missFloor time.Duration
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
