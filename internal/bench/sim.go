package bench

import (
	"testing"
	"time"

	"sae/internal/arrival"
	"sae/internal/device"
	"sae/internal/psres"
	"sae/internal/sim"
)

// SimSuite benchmarks the simulation substrate: the kernel's event queue on
// its distinct hot paths (ring fast lane, 4-ary heap, reschedule-in-place
// churn, periodic ticks, cancel-heavy speculation patterns), process
// switching, the processor-sharing server under stream churn, and the
// sharded-kernel coordinator on a large-cluster matrix (sharded.go).
func SimSuite() []Benchmark {
	return []Benchmark{
		{Name: "KernelRing", Body: KernelRing},
		{Name: "KernelHeap", Body: KernelHeap},
		{Name: "KernelTimerChurn", Body: KernelTimerChurn},
		{Name: "KernelEvery", Body: KernelEvery},
		{Name: "KernelCancel", Body: KernelCancel},
		{Name: "ProcessSwitch", Body: ProcessSwitch},
		{Name: "ProcessPingPong", Body: ProcessPingPong},
		{Name: "ProcessorSharing", Body: ProcessorSharing},
		{Name: "ArrivalGen", Body: ArrivalGen},
		{Name: "ShardedMatrix1", Body: ShardedMatrix1},
		{Name: "ShardedMatrix2", Body: ShardedMatrix2},
		{Name: "ShardedMatrix4", Body: ShardedMatrix4},
	}
}

func reportKernel(b *testing.B, k *sim.Kernel) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(k.FiredEvents())/s, "events/sec")
		b.ReportMetric(k.Now().Seconds()/s, "sim-s/wall-s")
	}
}

// KernelRing fires b.N same-instant callback events — the ring fast lane
// that backs Broadcast/Notify/zero-delay sends.
func KernelRing(b *testing.B) {
	k := sim.NewKernel()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		k.After(0, fn)
	}
	b.ResetTimer()
	k.Run()
	reportKernel(b, k)
}

// KernelHeap pushes b.N events at pseudo-random future instants and fires
// them all — the 4-ary heap's ordering path.
func KernelHeap(b *testing.B) {
	k := sim.NewKernel()
	fn := func() {}
	rng := uint64(1)
	for i := 0; i < b.N; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		k.After(time.Duration(rng%1e9)+1, fn)
	}
	b.ResetTimer()
	k.Run()
	reportKernel(b, k)
}

// KernelTimerChurn reproduces the failure-detector pattern: a deadline
// event pushed back in place on every simulated heartbeat.
func KernelTimerChurn(b *testing.B) {
	k := sim.NewKernel()
	deadline := k.After(10*time.Millisecond, func() {})
	left := b.N
	var beat sim.Event
	beat = k.Every(time.Millisecond, func() {
		deadline.Reschedule(k.Now() + 10*time.Millisecond)
		if left--; left <= 0 {
			beat.Cancel()
			deadline.Cancel()
		}
	})
	b.ResetTimer()
	k.Run()
	reportKernel(b, k)
}

// KernelEvery drives one periodic event through b.N firings — the
// heartbeat/monitor-tick primitive rescheduling itself in place.
func KernelEvery(b *testing.B) {
	k := sim.NewKernel()
	left := b.N
	var tick sim.Event
	tick = k.Every(time.Millisecond, func() {
		if left--; left <= 0 {
			tick.Cancel()
		}
	})
	b.ResetTimer()
	k.Run()
	reportKernel(b, k)
}

// KernelCancel schedules b.N far-future events, cancels 15 of every 16 (the
// speculation-timer pattern) and drains the survivors, exercising lazy
// cancellation plus heap compaction.
func KernelCancel(b *testing.B) {
	k := sim.NewKernel()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := k.After(time.Duration(i)+time.Second, fn)
		if i%16 != 0 {
			e.Cancel()
		}
	}
	k.Run()
	reportKernel(b, k)
}

// ProcessSwitch measures park/resume round trips of a lone process: two
// coroutine switches each, out to the kernel loop and back in (the kernel
// has no self-resume shortcut; see DESIGN.md "Simulator performance").
func ProcessSwitch(b *testing.B) {
	k := sim.NewKernel()
	k.Go("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	k.Run()
	reportKernel(b, k)
}

// ProcessPingPong bounces control between two processes via Park/Wake —
// the cross-process switch the engine pays on nearly every resume.
func ProcessPingPong(b *testing.B) {
	k := sim.NewKernel()
	var pa, pb *sim.Proc
	pa = k.Go("a", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			k.Wake(pb)
			p.Park()
		}
		k.Wake(pb) // release b from its final park
	})
	pb = k.Go("b", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Park()
			k.Wake(pa)
		}
		p.Park()
	})
	b.ResetTimer()
	k.Run()
	reportKernel(b, k)
}

// ArrivalGen draws a b.N-job open-loop schedule from a bursty process
// (Lewis–Shedler thinning over a two-class tenant mix) and dispatches every
// submission through the kernel — the full traffic-generation hot path.
func ArrivalGen(b *testing.B) {
	k := sim.NewKernel()
	spec := arrival.Spec{
		Proc: arrival.Bursty{OnRate: 1000, OffRate: 100, On: time.Second, Off: time.Second},
		Classes: []arrival.Class{
			{Name: "interactive", Weight: 3, Priority: 1},
			{Name: "batch", Weight: 1},
		},
		Seed:    1,
		Horizon: time.Duration(b.N+1) * time.Second,
		MaxJobs: b.N,
	}
	b.ResetTimer()
	sched := spec.Generate()
	submitted := 0
	arrival.Pump(k, sched, func(arrival.Arrival) { submitted++ })
	k.Run()
	reportKernel(b, k)
	if submitted != len(sched) {
		b.Fatalf("pumped %d of %d arrivals", submitted, len(sched))
	}
}

// ProcessorSharing hammers one HDD-curve server with 64 churning streams —
// the disk model on its arrival/completion hot path.
func ProcessorSharing(b *testing.B) {
	k := sim.NewKernel()
	s := psres.NewServer(k, psres.Config{Name: "d", Curve: device.HDD7200().Curve(1)})
	for i := 0; i < 64; i++ {
		k.Go("w", func(p *sim.Proc) {
			for j := 0; j < b.N/64+1; j++ {
				s.Serve(p, 1<<20, 1)
			}
		})
	}
	b.ResetTimer()
	k.Run()
	reportKernel(b, k)
}
