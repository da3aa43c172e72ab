// Package cluster assembles simulated nodes — CPU, disk and NIC devices plus
// node-level accounting (CPU busy and iowait meters, mirroring what the
// paper collects with mpstat) — into a cluster with a control-plane latency
// between driver and executors.
package cluster

import (
	"fmt"
	"time"

	"sae/internal/device"
	"sae/internal/psres"
	"sae/internal/sim"
)

// Config describes a homogeneous cluster (per-node heterogeneity comes from
// the variability model, as on the real DAS-5).
type Config struct {
	// Nodes is the number of worker nodes.
	Nodes int
	// CPU is the per-node CPU spec.
	CPU device.CPUSpec
	// Disk is the per-node storage device spec.
	Disk device.DiskSpec
	// NetBandwidth is the per-node NIC bandwidth in bytes/second.
	NetBandwidth float64
	// Variability assigns per-node disk speed factors.
	Variability device.VariabilityModel
	// ControlLatency is the one-way latency of control-plane messages
	// (task launch, completion, thread-count updates).
	ControlLatency time.Duration
}

// DAS5 returns the paper's evaluation setup: nodes with 32 virtual cores,
// 7'200 rpm HDDs and a fast (never-bottleneck) network.
func DAS5(nodes int) Config {
	return Config{
		Nodes:          nodes,
		CPU:            device.DAS5CPU(),
		Disk:           device.HDD7200(),
		NetBandwidth:   1.2 * float64(device.GiB),
		Variability:    device.DefaultVariability(1),
		ControlLatency: time.Millisecond,
	}
}

// Cluster is a set of simulated nodes sharing one kernel.
type Cluster struct {
	k     *sim.Kernel
	cfg   Config
	nodes []*Node
}

// New builds the cluster's nodes and devices on kernel k.
func New(k *sim.Kernel, cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("cluster: need at least one node, got %d", cfg.Nodes))
	}
	c := &Cluster{k: k, cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, newNode(k, i, cfg))
	}
	return c
}

// NewSharded builds the cluster's nodes across several kernels: node i and
// all its devices live on ks[shardOf(i)], so node-local work (disk and CPU
// events, usage metering) advances on the owning shard. ks[0] hosts the
// control plane and is what Kernel() returns.
func NewSharded(ks []*sim.Kernel, shardOf func(int) int, cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("cluster: need at least one node, got %d", cfg.Nodes))
	}
	if len(ks) == 0 {
		panic("cluster: sharded cluster needs at least one kernel")
	}
	c := &Cluster{k: ks[0], cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		s := shardOf(i)
		if s < 0 || s >= len(ks) {
			panic(fmt.Sprintf("cluster: node %d assigned to shard %d of %d", i, s, len(ks)))
		}
		c.nodes = append(c.nodes, newNode(ks[s], i, cfg))
	}
	return c
}

// Kernel returns the simulation kernel hosting the control plane.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns all nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// ControlLatency returns the configured control-plane message latency.
func (c *Cluster) ControlLatency() time.Duration { return c.cfg.ControlLatency }

// StartTransfer queues bytes to move from node src to node dst over the
// network for p and reports whether it did (see device.Disk.StartRead): at
// the transfer's completion p is woken. Same-node transfers are free. The
// link cost is charged on the receiver NIC (the simplification is safe
// because shuffle volumes never saturate the paper's 10G+ fabric).
func (c *Cluster) StartTransfer(p *sim.Proc, src, dst int, bytes int64) bool {
	return src != dst && c.nodes[dst].NIC.StartTransfer(p, bytes)
}

// Node is one simulated worker machine.
type Node struct {
	ID          int
	Name        string
	SpeedFactor float64
	CPU         *device.CPU
	Disk        *device.Disk
	NIC         *device.NIC

	meter *usageMeter
}

func newNode(k *sim.Kernel, id int, cfg Config) *Node {
	n := &Node{
		ID:          id,
		Name:        fmt.Sprintf("node%03d", 303+id), // DAS-5 naming, as in Fig. 3
		SpeedFactor: cfg.Variability.Factor(id),
	}
	n.meter = newUsageMeter(k, cfg.CPU.VirtualCores)
	n.CPU = device.NewCPU(k, cfg.CPU, n.meter.setCPUActive)
	n.Disk = device.NewDisk(k, cfg.Disk, n.SpeedFactor, n.meter.setDiskActive)
	n.NIC = device.NewNIC(k, n.Name+"/nic", cfg.NetBandwidth)
	return n
}

// Usage is a snapshot of cumulative node usage integrals. Differences of two
// snapshots over a window yield mpstat-style percentages.
type Usage struct {
	At time.Duration
	// BusyCoreSec is ∫ min(runnable threads, vcores) dt.
	BusyCoreSec float64
	// IowaitCoreSec is ∫ idle-cores-while-disk-busy dt — the mpstat
	// %iowait analogue.
	IowaitCoreSec float64
}

// Usage returns the node's cumulative usage integrals.
func (n *Node) Usage() Usage { return n.meter.snapshot() }

// SetThrottle degrades the node's disk and CPU to 1/factor of their nominal
// service rates (factor 1 restores nominal). The gray-failure hook: the node
// stays alive and reachable, it just serves slowly.
func (n *Node) SetThrottle(factor float64) {
	n.Disk.SetThrottle(factor)
	n.CPU.SetThrottle(factor)
}

// CPUPercent returns the average CPU utilization (0-100) between snapshots.
func CPUPercent(a, b Usage, vcores int) float64 {
	w := (b.At - a.At).Seconds()
	if w <= 0 {
		return 0
	}
	return 100 * (b.BusyCoreSec - a.BusyCoreSec) / (w * float64(vcores))
}

// IowaitPercent returns the average iowait (0-100) between snapshots.
func IowaitPercent(a, b Usage, vcores int) float64 {
	w := (b.At - a.At).Seconds()
	if w <= 0 {
		return 0
	}
	return 100 * (b.IowaitCoreSec - a.IowaitCoreSec) / (w * float64(vcores))
}

// DiskUtilization returns the fraction of time (0-100) the node's disk was
// busy between two device snapshots.
func DiskUtilization(a, b psres.Stats) float64 {
	return float64(100 * psres.UtilizationBetween(a, b))
}

// usageMeter integrates node-level CPU-busy and iowait time, updated
// event-exactly via device active-count callbacks.
type usageMeter struct {
	k          *sim.Kernel
	vcores     int
	cpuActive  int
	diskActive int
	last       time.Duration
	busy       float64
	iowait     float64
}

func newUsageMeter(k *sim.Kernel, vcores int) *usageMeter {
	return &usageMeter{k: k, vcores: vcores}
}

func (m *usageMeter) advance() {
	now := m.k.Now()
	if now <= m.last {
		m.last = now
		return
	}
	dt := (now - m.last).Seconds()
	busyCores := m.cpuActive
	if busyCores > m.vcores {
		busyCores = m.vcores
	}
	m.busy += float64(dt * float64(busyCores))
	if m.diskActive > 0 {
		m.iowait += float64(dt * float64(m.vcores-busyCores))
	}
	m.last = now
}

func (m *usageMeter) setCPUActive(n int) {
	m.advance()
	m.cpuActive = n
}

func (m *usageMeter) setDiskActive(n int) {
	m.advance()
	m.diskActive = n
}

func (m *usageMeter) snapshot() Usage {
	m.advance()
	return Usage{At: m.k.Now(), BusyCoreSec: m.busy, IowaitCoreSec: m.iowait}
}
