// Package device provides calibrated models of the hardware the paper's
// evaluation runs on: rotational disks whose aggregate bandwidth collapses
// under concurrent streams (seek thrash), SSDs with flat random-access
// throughput and a write-amplification penalty, network interfaces, and
// SMT CPUs. Each device wraps a processor-sharing server (psres) so
// contention behaviour emerges from the concurrency→bandwidth curve rather
// than being scripted.
package device

import (
	"fmt"
	"math"

	"sae/internal/psres"
	"sae/internal/sim"
)

// MiB and friends express byte quantities in device specs.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// DiskSpec describes a storage device's concurrency behaviour as a measured
// bandwidth profile: aggregate bandwidth at power-of-two concurrent stream
// counts, interpolated log-linearly in between and extrapolated beyond the
// last point along the final segment's log-log slope.
//
// The HDD profile is calibrated against the per-executor I/O throughput the
// paper measures at 2–32 threads (Fig. 12a): a 7'200 rpm drive under NCQ
// peaks at a handful of concurrent streams (command queuing amortizes head
// movement) and collapses as further streams force seek thrash. The SSD
// profile (Fig. 12b) is essentially flat once its channel parallelism is
// covered.
type DiskSpec struct {
	Name string
	// Levels are strictly increasing stream counts, starting at 1.
	Levels []int
	// Bandwidth[i] is the aggregate bandwidth (bytes/s) at Levels[i].
	Bandwidth []float64
	// WriteWeight is the service weight of write streams relative to
	// reads (<1 means writes are slower byte-for-byte).
	WriteWeight float64
}

// At returns the aggregate bandwidth with n concurrent streams.
func (ds DiskSpec) At(n int) float64 {
	if n < 1 {
		n = 1
	}
	lv, bw := ds.Levels, ds.Bandwidth
	if len(lv) == 0 || len(lv) != len(bw) {
		panic(fmt.Sprintf("device %s: malformed bandwidth profile", ds.Name))
	}
	if n <= lv[0] {
		return bw[0]
	}
	for i := 1; i < len(lv); i++ {
		if n <= lv[i] {
			// Log-linear interpolation in the stream count.
			t := (math.Log(float64(n)) - math.Log(float64(lv[i-1]))) /
				(math.Log(float64(lv[i])) - math.Log(float64(lv[i-1])))
			return bw[i-1] * math.Pow(bw[i]/bw[i-1], t)
		}
	}
	// Extrapolate along the last segment's log-log slope.
	k := len(lv) - 1
	slope := math.Log(bw[k]/bw[k-1]) / math.Log(float64(lv[k])/float64(lv[k-1]))
	return bw[k] * math.Pow(float64(n)/float64(lv[k]), slope)
}

// Peak returns the profile's maximum aggregate bandwidth and the stream
// count achieving it — the device's best operating point.
func (ds DiskSpec) Peak() (bandwidth float64, streams int) {
	for i, b := range ds.Bandwidth {
		if b > bandwidth {
			bandwidth, streams = b, ds.Levels[i]
		}
	}
	return bandwidth, streams
}

// Overload returns the contention factor at n streams: 0 while the device
// is at or below its best operating point, rising toward 1 as aggregate
// bandwidth collapses. The monitor multiplies I/O service time by this
// factor to obtain ε: readahead and command queuing hide device service
// time from applications until the device is past saturation, so blocked
// time is the *contention-induced* share of the wait.
func (ds DiskSpec) Overload(n int) float64 {
	peak, at := ds.Peak()
	if n <= at {
		return 0
	}
	ov := 1 - ds.At(n)/peak
	if ov < 0 {
		return 0
	}
	return ov
}

// Curve returns the aggregate bandwidth curve for the spec scaled by factor.
func (ds DiskSpec) Curve(factor float64) psres.Curve {
	return func(n int) float64 { return factor * ds.At(n) }
}

// HDD7200 models the paper's 7'200 rpm SATA drives, calibrated to the
// per-executor throughput plateaus of Fig. 12a: ≈150 MB/s with 2 streams,
// peaking ≈220 MB/s at 4, collapsing to ≈110 MB/s at 32 and further under
// shuffle fan-in.
func HDD7200() DiskSpec {
	return DiskSpec{
		Name: "hdd-7200rpm",
		Levels: []int{
			1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
		},
		Bandwidth: []float64{
			120 * MiB, 150 * MiB, 220 * MiB, 185 * MiB, 142 * MiB,
			110 * MiB, 68 * MiB, 44 * MiB, 30 * MiB, 20 * MiB,
		},
		WriteWeight: 0.85,
	}
}

// SSDSata models the SATA SSDs of §6.3 (Fig. 12b): uniform random-access
// latency, aggregate read bandwidth flat in the stream count once the
// channels are covered; writes pay an erase-block penalty via WriteWeight.
func SSDSata() DiskSpec {
	return DiskSpec{
		Name: "ssd-sata",
		Levels: []int{
			1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
		},
		Bandwidth: []float64{
			390 * MiB, 440 * MiB, 490 * MiB, 515 * MiB, 520 * MiB,
			500 * MiB, 458 * MiB, 415 * MiB, 372 * MiB, 330 * MiB,
		},
		WriteWeight: 0.62,
	}
}

// Disk is a storage device instance attached to one node.
type Disk struct {
	spec   DiskSpec
	server *psres.Server
	// overload[n] caches spec.Overload(n), filled up to the highest stream
	// count asked about; Overload is pure, so a cached value is
	// bit-identical to recomputing it (as with psres's curve memo).
	overload []float64

	bytesRead    int64
	bytesWritten int64
}

// NewDisk creates a disk on kernel k. factor scales bandwidth for per-node
// variability (1 = nominal). onActive, if non-nil, observes the active
// stream count (used by the node iowait meter).
func NewDisk(k *sim.Kernel, spec DiskSpec, factor float64, onActive func(int)) *Disk {
	if factor <= 0 {
		panic(fmt.Sprintf("device: non-positive disk speed factor %v", factor))
	}
	d := &Disk{spec: spec}
	d.server = psres.NewServer(k, psres.Config{
		Name:           spec.Name,
		Curve:          spec.Curve(factor),
		OnActiveChange: onActive,
	})
	return d
}

// StartRead queues a read of bytes from the device for p and reports whether
// it did — false for nothing to read, which owes p no wake. Once the read has
// completed the device wakes p (see psres.Server.Start). The Start forms of
// the other device operations follow the same contract.
func (d *Disk) StartRead(p *sim.Proc, bytes int64) bool {
	if bytes <= 0 {
		return false
	}
	d.bytesRead += bytes
	return d.server.Start(p, float64(bytes), 1)
}

// StartWrite queues a write of bytes to the device for p, served at the
// spec's WriteWeight, and reports whether it did.
func (d *Disk) StartWrite(p *sim.Proc, bytes int64) bool {
	if bytes <= 0 {
		return false
	}
	d.bytesWritten += bytes
	return d.server.Start(p, float64(bytes), d.spec.WriteWeight)
}

// SetThrottle degrades the disk to 1/factor of its nominal service rate
// (factor 1 restores nominal). In-flight I/O is re-planned from the current
// instant — the gray-failure hook for a degrading drive.
func (d *Disk) SetThrottle(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("device %s: non-positive throttle factor %v", d.spec.Name, factor))
	}
	d.server.SetRateScale(1 / factor)
}

// Counters returns cumulative raw bytes read and written.
func (d *Disk) Counters() (read, written int64) { return d.bytesRead, d.bytesWritten }

// OverloadAhead returns the contention factor an additional stream would
// experience if it were issued now (see DiskSpec.Overload).
func (d *Disk) OverloadAhead() float64 {
	n := d.server.Active() + 1
	for len(d.overload) <= n {
		d.overload = append(d.overload, d.spec.Overload(len(d.overload)))
	}
	return d.overload[n]
}

// Snapshot returns the underlying server statistics (busy time etc.).
func (d *Disk) Snapshot() psres.Stats { return d.server.Snapshot() }

// Active returns the number of in-flight I/O streams.
func (d *Disk) Active() int { return d.server.Active() }

// Spares is the storage one node's devices give back for a later run's
// (Release, Reuse): their stream tables (psres.Server.Release) and the disk's
// overload memo, emptied, since the next disk's spec may differ.
type Spares struct {
	cpu, disk, nic psres.Table
	overload       []float64
}

// Release moves the storage of a node's devices into sp.
func Release(sp *Spares, c *CPU, d *Disk, n *NIC) {
	sp.cpu, sp.disk, sp.nic = c.server.Release(), d.server.Release(), n.server.Release()
	sp.overload, d.overload = d.overload[:0], nil
}

// Reuse hands a node's devices, before their first stream, the storage in sp
// and empties sp.
func Reuse(sp *Spares, c *CPU, d *Disk, n *NIC) {
	c.server.Reuse(sp.cpu)
	d.server.Reuse(sp.disk)
	n.server.Reuse(sp.nic)
	d.overload = sp.overload
	*sp = Spares{}
}

// NIC models a full-duplex network interface as a single shared link of
// fixed bandwidth (the paper's cluster uses FDR InfiniBand / 10G Ethernet;
// the network is never the bottleneck in these workloads, only an additive
// cost on shuffle and remote reads).
type NIC struct {
	server     *psres.Server
	bytesMoved int64
}

// NewNIC creates a NIC with the given link bandwidth in bytes/second.
func NewNIC(k *sim.Kernel, name string, bandwidth float64) *NIC {
	n := &NIC{}
	n.server = psres.NewServer(k, psres.Config{
		Name:  name,
		Curve: psres.Flat(bandwidth),
	})
	return n
}

// StartTransfer queues bytes to cross the link for p and reports whether it
// did.
func (n *NIC) StartTransfer(p *sim.Proc, bytes int64) bool {
	if bytes <= 0 {
		return false
	}
	n.bytesMoved += bytes
	return n.server.Start(p, float64(bytes), 1)
}

// BytesMoved returns cumulative bytes transferred.
func (n *NIC) BytesMoved() int64 { return n.bytesMoved }

// Snapshot returns the underlying server statistics.
func (n *NIC) Snapshot() psres.Stats { return n.server.Snapshot() }

// CPUSpec describes a simultaneous-multithreading CPU: PhysicalCores real
// cores exposed as 2× virtual cores, where the second hardware thread of a
// busy core contributes only SMTYield extra throughput (the paper's nodes:
// 16 physical, 32 virtual).
type CPUSpec struct {
	PhysicalCores int
	VirtualCores  int
	// SMTYield is the fractional extra throughput of the second hardware
	// thread (0.3 ≈ typical for Xeon-era SMT).
	SMTYield float64
}

// DAS5CPU returns the paper's node CPU configuration.
func DAS5CPU() CPUSpec {
	return CPUSpec{PhysicalCores: 16, VirtualCores: 32, SMTYield: 0.3}
}

// Capacity returns the effective core capacity with n runnable threads.
func (c CPUSpec) Capacity(n int) float64 {
	p := float64(c.PhysicalCores)
	fn := float64(n)
	if fn <= p {
		return fn
	}
	extra := math.Min(fn, float64(c.VirtualCores)) - p
	return p + float64(extra*c.SMTYield)
}

// CPU is a shared compute device measured in core-seconds.
type CPU struct {
	spec   CPUSpec
	server *psres.Server
}

// NewCPU creates a CPU device. onActive observes the runnable thread count.
func NewCPU(k *sim.Kernel, spec CPUSpec, onActive func(int)) *CPU {
	if spec.VirtualCores <= 0 || spec.PhysicalCores <= 0 {
		panic("device: CPU spec must have positive core counts")
	}
	c := &CPU{spec: spec}
	c.server = psres.NewServer(k, psres.Config{
		Name:           "cpu",
		Curve:          func(n int) float64 { return spec.Capacity(n) },
		PerStreamCap:   1,
		OnActiveChange: onActive,
	})
	return c
}

// Spec returns the CPU spec.
func (c *CPU) Spec() CPUSpec { return c.spec }

// StartCompute queues seconds of single-core work for p, sharing capacity
// with all other runnable threads, and reports whether it did.
func (c *CPU) StartCompute(p *sim.Proc, seconds float64) bool {
	return c.server.Start(p, seconds, 1)
}

// SetThrottle degrades the CPU to 1/factor of its nominal capacity (factor 1
// restores nominal) — thermal throttling or a noisy neighbour stealing
// cycles. Runnable threads are re-planned from the current instant.
func (c *CPU) SetThrottle(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("device cpu: non-positive throttle factor %v", factor))
	}
	c.server.SetRateScale(1 / factor)
}

// Snapshot returns the underlying server statistics; ActiveIntegral is busy
// core-seconds (thread-seconds, each capped at one core).
func (c *CPU) Snapshot() psres.Stats { return c.server.Snapshot() }

// Active returns the number of runnable threads.
func (c *CPU) Active() int { return c.server.Active() }

// VariabilityModel produces deterministic per-node speed factors reproducing
// the spread measured on DAS-5 (Fig. 3): most nodes within ±10% of nominal,
// with a heavy tail of slow outliers.
type VariabilityModel struct {
	// Sigma is the log-normal sigma of the common-case spread.
	Sigma float64
	// StragglerFrac is the fraction of nodes that are stragglers.
	StragglerFrac float64
	// StragglerSlowdown is the extra slowdown factor for stragglers.
	StragglerSlowdown float64
	// Seed makes the assignment deterministic.
	Seed int64
}

// DefaultVariability matches the read/write spread of Fig. 3.
func DefaultVariability(seed int64) VariabilityModel {
	return VariabilityModel{Sigma: 0.08, StragglerFrac: 0.07, StragglerSlowdown: 2.6, Seed: seed}
}

// Uniform returns a model where every node is exactly nominal.
func Uniform() VariabilityModel { return VariabilityModel{} }

// Factor returns the speed factor for node index i (deterministic in
// (Seed, i)). Factors multiply device bandwidth, so slow nodes have
// factor < 1.
func (v VariabilityModel) Factor(i int) float64 {
	if v.Sigma == 0 && v.StragglerFrac == 0 {
		return 1
	}
	// splitmix64-style hash for per-node determinism independent of
	// call order.
	h := uint64(v.Seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	u1 := float64(h>>11) / float64(1<<53) // uniform (0,1)
	u2 := float64((h*0x2545f4914f6cdd1d)>>11) / float64(1<<53)
	// Box-Muller for the log-normal body.
	z := math.Sqrt(-2*math.Log(math.Max(u1, 1e-12))) * math.Cos(2*math.Pi*u2)
	f := math.Exp(float64(-v.Sigma*v.Sigma/2) + float64(v.Sigma*z))
	if u2 < v.StragglerFrac {
		f /= v.StragglerSlowdown
	}
	return f
}
