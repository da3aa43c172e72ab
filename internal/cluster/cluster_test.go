package cluster

import (
	"math"
	"testing"
	"time"

	"sae/internal/device"
	"sae/internal/sim"
)

// script is a stackless process that runs its steps in order. A step starts
// an operation and reports whether that owes the process a wake: the next
// step runs at the wake, or at once when none is owed.
type script struct {
	proc  sim.Proc
	steps []func(p *sim.Proc) bool
}

func (s *script) Step() {
	for len(s.steps) > 0 {
		step := s.steps[0]
		s.steps = s.steps[1:]
		if step(&s.proc) {
			return
		}
	}
}

// run starts steps as a process on k.
func run(k *sim.Kernel, steps ...func(p *sim.Proc) bool) {
	s := &script{steps: steps}
	k.GoStepper(&s.proc, "script", s)
}

func testConfig(nodes int) Config {
	cfg := DAS5(nodes)
	cfg.Variability = device.Uniform()
	return cfg
}

func TestNewClusterNodes(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig(4))
	if c.Size() != 4 {
		t.Fatalf("size = %d", c.Size())
	}
	if c.Node(0).Name != "node303" || c.Node(3).Name != "node306" {
		t.Fatalf("unexpected node names %q %q", c.Node(0).Name, c.Node(3).Name)
	}
	for _, n := range c.Nodes() {
		if n.SpeedFactor != 1 {
			t.Fatalf("uniform variability gave factor %v", n.SpeedFactor)
		}
	}
}

func TestTransferLocalIsFree(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig(2))
	run(k, func(p *sim.Proc) bool {
		if c.StartTransfer(p, 0, 0, 1<<30) {
			t.Error("a same-node transfer was queued")
		}
		return false
	})
	k.Run()
	if k.Now() != 0 {
		t.Fatalf("local transfer took %v", k.Now())
	}
}

func TestTransferRemoteChargesReceiverNIC(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig(2)
	cfg.NetBandwidth = 1000
	c := New(k, cfg)
	run(k, func(p *sim.Proc) bool { return c.StartTransfer(p, 0, 1, 500) })
	k.Run()
	if math.Abs(k.Now().Seconds()-0.5) > 1e-6 {
		t.Fatalf("remote transfer took %v, want 0.5s", k.Now())
	}
	if c.Node(1).NIC.BytesMoved() != 500 {
		t.Fatalf("receiver NIC moved %d", c.Node(1).NIC.BytesMoved())
	}
	if c.Node(0).NIC.BytesMoved() != 0 {
		t.Fatalf("sender NIC charged %d", c.Node(0).NIC.BytesMoved())
	}
}

func TestCPUPercent(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig(1))
	n := c.Node(0)
	start := n.Usage()
	// 8 threads computing 10s each on 32 vcores: 25% busy for 10s.
	for i := 0; i < 8; i++ {
		run(k, func(p *sim.Proc) bool { return n.CPU.StartCompute(p, 10) })
	}
	k.Run()
	end := n.Usage()
	got := CPUPercent(start, end, 32)
	if math.Abs(got-25) > 0.01 {
		t.Fatalf("CPU%% = %v, want 25", got)
	}
}

func TestIowaitPercent(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig(1))
	n := c.Node(0)
	start := n.Usage()
	// One thread reads from disk while the CPU is otherwise idle: iowait
	// should cover (vcores-0)/vcores of the read window.
	run(k, func(p *sim.Proc) bool { return n.Disk.StartRead(p, 100*device.MiB) })
	k.Run()
	end := n.Usage()
	got := IowaitPercent(start, end, 32)
	if math.Abs(got-100) > 0.01 {
		t.Fatalf("iowait%% = %v, want 100 (all cores idle, disk busy)", got)
	}
}

func TestIowaitZeroWhenCPUFull(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig(1))
	n := c.Node(0)
	start := n.Usage()
	// Saturate all 32 vcores for the whole disk-read window.
	for i := 0; i < 32; i++ {
		run(k, func(p *sim.Proc) bool { return n.CPU.StartCompute(p, 100) })
	}
	run(k, func(p *sim.Proc) bool { return n.Disk.StartRead(p, 10*device.MiB) })
	k.Run()
	end := n.Usage()
	if got := IowaitPercent(start, end, 32); got > 0.01 {
		t.Fatalf("iowait%% = %v, want 0 when CPU saturated", got)
	}
}

func TestDiskUtilizationWindow(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig(1))
	n := c.Node(0)
	a := n.Disk.Snapshot()
	var b, cSnap = a, a
	run(k,
		func(p *sim.Proc) bool { return n.Disk.StartRead(p, 115*device.MiB) }, // ~0.5s on the HDD model
		func(p *sim.Proc) bool {
			b = n.Disk.Snapshot()
			p.WakeAfter(time.Duration(b.At)) // idle as long as we were busy
			return true
		},
		func(p *sim.Proc) bool { cSnap = n.Disk.Snapshot(); return false })
	k.Run()
	if got := DiskUtilization(a, b); math.Abs(got-100) > 0.01 {
		t.Fatalf("busy window utilization = %v, want 100", got)
	}
	if got := DiskUtilization(b, cSnap); got > 0.01 {
		t.Fatalf("idle window utilization = %v, want 0", got)
	}
}

func TestVariabilityAppliesToDisk(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig(8)
	cfg.Variability = device.DefaultVariability(3)
	c := New(k, cfg)
	distinct := map[float64]bool{}
	for _, n := range c.Nodes() {
		distinct[n.SpeedFactor] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("expected varied speed factors, got %d distinct", len(distinct))
	}
}
