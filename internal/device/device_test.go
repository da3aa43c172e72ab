package device

import (
	"math"
	"testing"
	"testing/quick"
	"time"

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

func TestHDDCurvePeaksAtFewStreams(t *testing.T) {
	c := HDD7200().Curve(1)
	// Fig. 12a shape: rises from 2 to 4 streams (NCQ), then collapses.
	if c(4) <= c(2) {
		t.Fatalf("B(4)=%v should exceed B(2)=%v", c(4), c(2))
	}
	if c(32) >= c(8) {
		t.Fatalf("B(32)=%v should be below B(8)=%v", c(32), c(8))
	}
	// The NCQ rise must be steep (paper: 150→220 MB/s).
	if ratio := c(4) / c(2); ratio < 1.40 {
		t.Fatalf("B(4)/B(2) = %v, want ≥ 1.40", ratio)
	}
	// The collapse past the peak should reach ~50% at 32 streams.
	peak, at := HDD7200().Peak()
	if at != 4 {
		t.Fatalf("HDD peak at %d streams, want 4", at)
	}
	if ratio := c(32) / peak; ratio > 0.65 || ratio < 0.35 {
		t.Fatalf("B(32)/peak = %v, want within [0.35, 0.65]", ratio)
	}
	// Extrapolation beyond the table keeps collapsing.
	if c(1024) >= c(512) {
		t.Fatalf("extrapolated B(1024)=%v should fall below B(512)=%v", c(1024), c(512))
	}
}

func TestSSDCurveFlat(t *testing.T) {
	c := SSDSata().Curve(1)
	ratio := c(32) / c(4)
	if ratio < 0.90 {
		t.Fatalf("SSD bandwidth should be near-flat: B(32)/B(4) = %v", ratio)
	}
}

func TestCurveInterpolation(t *testing.T) {
	spec := HDD7200()
	// Between levels the curve must stay between the bracketing points.
	b2, b4 := spec.At(2), spec.At(4)
	b3 := spec.At(3)
	lo, hi := math.Min(b2, b4), math.Max(b2, b4)
	if b3 < lo || b3 > hi {
		t.Fatalf("At(3)=%v outside [%v,%v]", b3, lo, hi)
	}
	if spec.At(0) != spec.At(1) {
		t.Fatal("At(0) should clamp to At(1)")
	}
}

func TestOverloadSemantics(t *testing.T) {
	spec := HDD7200()
	for n := 1; n <= 4; n++ {
		if ov := spec.Overload(n); ov != 0 {
			t.Fatalf("Overload(%d) = %v, want 0 at/below best operating point", n, ov)
		}
	}
	o8, o16, o32 := spec.Overload(8), spec.Overload(16), spec.Overload(32)
	if !(o8 > 0 && o16 > o8 && o32 > o16) {
		t.Fatalf("overload must rise past the peak: %v %v %v", o8, o16, o32)
	}
	if o32 >= 1 {
		t.Fatalf("overload must stay below 1: %v", o32)
	}
	// SSD: barely contended at every realistic thread count.
	ssd := SSDSata()
	if ov := ssd.Overload(32); ov > 0.06 {
		t.Fatalf("SSD Overload(32) = %v, want ≈0", ov)
	}
	if hdd, sd := spec.Overload(32), ssd.Overload(32); sd >= hdd/3 {
		t.Fatalf("SSD overload (%v) should be far below HDD (%v)", sd, hdd)
	}
}

func TestSSDFasterThanHDDEverywhere(t *testing.T) {
	h, s := HDD7200().Curve(1), SSDSata().Curve(1)
	for n := 1; n <= 32; n++ {
		if s(n) <= h(n) {
			t.Fatalf("SSD slower than HDD at n=%d: %v vs %v", n, s(n), h(n))
		}
	}
}

func TestDiskReadWriteCounters(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, HDD7200(), 1, nil)
	run(k,
		func(p *sim.Proc) bool { return d.StartRead(p, 10*MiB) },
		func(p *sim.Proc) bool { return d.StartWrite(p, 5*MiB) })
	k.Run()
	r, w := d.Counters()
	if r != 10*MiB || w != 5*MiB {
		t.Fatalf("counters = %d/%d", r, w)
	}
}

// TestOverloadAheadMatchesSpec checks the per-disk memo against the spec at
// every stream count a staggered burst passes through, rising and falling,
// asked twice so both the fill and the hit are compared.
func TestOverloadAheadMatchesSpec(t *testing.T) {
	k := sim.NewKernel()
	spec := HDD7200()
	d := NewDisk(k, spec, 1, nil)
	checks := 0
	check := func() {
		for i := 0; i < 2; i++ {
			if got, want := d.OverloadAhead(), spec.Overload(d.Active()+1); got != want {
				t.Errorf("OverloadAhead with %d active = %v, spec says %v", d.Active(), got, want)
			}
		}
		checks++
	}
	check()
	for i := 0; i < 40; i++ {
		run(k,
			func(p *sim.Proc) bool { p.WakeAfter(time.Duration(i) * time.Millisecond); return true },
			func(p *sim.Proc) bool { check(); return d.StartRead(p, int64(i+1)*MiB) },
			func(p *sim.Proc) bool { check(); return false })
	}
	k.Run()
	if checks != 81 || d.Active() != 0 {
		t.Fatalf("%d checks ran, %d streams left", checks, d.Active())
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	read := func() time.Duration {
		k := sim.NewKernel()
		d := NewDisk(k, HDD7200(), 1, nil)
		run(k, func(p *sim.Proc) bool { return d.StartRead(p, GiB) })
		k.Run()
		return k.Now()
	}()
	write := func() time.Duration {
		k := sim.NewKernel()
		d := NewDisk(k, HDD7200(), 1, nil)
		run(k, func(p *sim.Proc) bool { return d.StartWrite(p, GiB) })
		k.Run()
		return k.Now()
	}()
	if write <= read {
		t.Fatalf("write %v should be slower than read %v", write, read)
	}
}

func TestSlowNodeFactor(t *testing.T) {
	run := func(factor float64) time.Duration {
		k := sim.NewKernel()
		d := NewDisk(k, HDD7200(), factor, nil)
		run(k, func(p *sim.Proc) bool { return d.StartRead(p, GiB) })
		k.Run()
		return k.Now()
	}
	fast, slow := run(1.0), run(0.5)
	if math.Abs(float64(slow)/float64(fast)-2.0) > 1e-6 {
		t.Fatalf("half-speed disk should take 2x: %v vs %v", slow, fast)
	}
}

func TestCPUCapacitySMT(t *testing.T) {
	spec := DAS5CPU()
	if got := spec.Capacity(8); got != 8 {
		t.Fatalf("Capacity(8) = %v, want 8", got)
	}
	if got := spec.Capacity(16); got != 16 {
		t.Fatalf("Capacity(16) = %v, want 16", got)
	}
	want := 16 + 16*0.3
	if got := spec.Capacity(32); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Capacity(32) = %v, want %v", got, want)
	}
	if got := spec.Capacity(64); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Capacity(64) = %v, want %v (capped at virtual cores)", got, want)
	}
}

func TestCPUComputeSharing(t *testing.T) {
	// 16 physical cores: 16 threads of 2s each all run at full speed.
	k := sim.NewKernel()
	c := NewCPU(k, DAS5CPU(), nil)
	var last time.Duration
	for i := 0; i < 16; i++ {
		run(k,
			func(p *sim.Proc) bool { return c.StartCompute(p, 2) },
			func(p *sim.Proc) bool { last = max(last, p.Now()); return false })
	}
	k.Run()
	if math.Abs(last.Seconds()-2.0) > 1e-6 {
		t.Fatalf("16 threads on 16 cores took %v, want 2s", last)
	}
}

func TestCPUSMTSlowdown(t *testing.T) {
	// 32 threads of 1 core-second each on 16+SMT cores: capacity 20.8,
	// each thread gets 0.65 cores → 1/0.65 ≈ 1.538s.
	k := sim.NewKernel()
	c := NewCPU(k, DAS5CPU(), nil)
	var last time.Duration
	for i := 0; i < 32; i++ {
		run(k,
			func(p *sim.Proc) bool { return c.StartCompute(p, 1) },
			func(p *sim.Proc) bool { last = max(last, p.Now()); return false })
	}
	k.Run()
	want := 32.0 / DAS5CPU().Capacity(32)
	if math.Abs(last.Seconds()-want) > 1e-6 {
		t.Fatalf("32 SMT threads took %v, want %vs", last, want)
	}
}

func TestNICTransfer(t *testing.T) {
	k := sim.NewKernel()
	n := NewNIC(k, "eth0", 1000)
	run(k, func(p *sim.Proc) bool { return n.StartTransfer(p, 500) })
	k.Run()
	if math.Abs(k.Now().Seconds()-0.5) > 1e-6 {
		t.Fatalf("transfer took %v, want 0.5s", k.Now())
	}
	if n.BytesMoved() != 500 {
		t.Fatalf("moved %d", n.BytesMoved())
	}
}

func TestVariabilityDeterministic(t *testing.T) {
	v := DefaultVariability(42)
	for i := 0; i < 10; i++ {
		if v.Factor(i) != v.Factor(i) {
			t.Fatal("factor not deterministic")
		}
	}
	w := DefaultVariability(43)
	same := true
	for i := 0; i < 10; i++ {
		if v.Factor(i) != w.Factor(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical factors")
	}
}

func TestVariabilityShape(t *testing.T) {
	v := DefaultVariability(1)
	n := 500
	var slow int
	var sum float64
	for i := 0; i < n; i++ {
		f := v.Factor(i)
		if f <= 0 {
			t.Fatalf("factor %v <= 0", f)
		}
		if f < 0.6 {
			slow++
		}
		sum += f
	}
	mean := sum / float64(n)
	if mean < 0.85 || mean > 1.1 {
		t.Fatalf("mean factor = %v, want ≈1", mean)
	}
	frac := float64(slow) / float64(n)
	if frac < 0.02 || frac > 0.15 {
		t.Fatalf("straggler fraction = %v, want ≈0.07", frac)
	}
}

func TestUniformVariability(t *testing.T) {
	v := Uniform()
	for i := 0; i < 50; i++ {
		if v.Factor(i) != 1 {
			t.Fatalf("uniform factor(%d) = %v", i, v.Factor(i))
		}
	}
}

// Property: all disk curves are positive and finite for 1..64 streams.
func TestCurvePositiveProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		streams := int(n%64) + 1
		for _, spec := range []DiskSpec{HDD7200(), SSDSata()} {
			factor := DefaultVariability(seed).Factor(int(n))
			b := spec.Curve(factor)(streams)
			if b <= 0 || math.IsInf(b, 0) || math.IsNaN(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
