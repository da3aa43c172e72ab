package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sae/internal/arrival"
	"sae/internal/cluster"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/dfs"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/exp"
	"sae/internal/psres"
	"sae/internal/scenario"
	"sae/internal/sim"
	simwork "sae/internal/workloads"
)

// The ladder drives each lower layer's public API directly with a fixed,
// seeded operation count, so a per-operation cost exists for the layers the
// workload spans cannot see into. It is the same on every workload: a rung
// says what a layer costs, the workload spans and counts say how much of it
// a workload uses. Rungs model their loads on internal/bench but import
// nothing from it.

// ladderReps is how often each rung runs; the median is reported.
const ladderReps = 3

// rung is one ladder step: run builds what it needs, performs ops operations
// and returns how long they took and how many it performed (0 = ops); the
// metric is per operation in the unit's scale (ns or us).
type rung struct {
	metric string
	ops    int
	run    func(ops int, seed int64) (time.Duration, int, error)
}

func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// runLadder times every rung and stores the per-operation medians in out.
func runLadder(seed int64, sz sizes, rec *recorder, out map[string]float64) error {
	for _, r := range ladderRungs(sz) {
		perOp := make([]float64, 0, ladderReps)
		for rep := 0; rep < ladderReps; rep++ {
			sp := rec.begin("ladder."+r.metric, "ladder")
			ops := max(1, int(float64(r.ops)*sz.ladderOps))
			d, done, err := r.run(ops, seed)
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("ladder %s: %w", r.metric, err)
			}
			if done == 0 {
				done = ops
			}
			scale := float64(time.Nanosecond)
			if unitOf(r.metric) == "us" {
				scale = float64(time.Microsecond)
			}
			perOp = append(perOp, float64(d)/scale/float64(done))
		}
		out[r.metric] = median(perOp)
	}
	return nil
}

func ladderRungs(sz sizes) []rung {
	wide := sz.wideNodes
	return []rung{
		{"sim.ring_ns", 1_000_000, simRing},
		{"sim.heap_ns", 500_000, simHeap},
		{"sim.resched_ns", 500_000, simResched},
		{"sim.cancel_ns", 500_000, simCancel},
		{"sim.handoff_ns", 200_000, simHandoff},
		{"sim.mailbox_ns", 200_000, simMailbox},
		{"psres.serve_ns.s64", 200_000, func(ops int, _ int64) (time.Duration, int, error) { return psresServe(ops, 64) }},
		{"psres.serve_ns.s1", 200_000, func(ops int, _ int64) (time.Duration, int, error) { return psresServe(ops, 1) }},
		{"device.hdd_curve_ns", 2_000_000, hddCurve},
		{"cluster.new_us.n4", 2_000, func(ops int, seed int64) (time.Duration, int, error) { return clusterNew(ops, 4, seed) }},
		{"cluster.new_us.n256", 40, func(ops int, seed int64) (time.Duration, int, error) { return clusterNew(ops, wide, seed) }},
		{"dfs.create_us.allrep", 8, func(ops int, _ int64) (time.Duration, int, error) { return dfsCreate(ops, wide, 0) }},
		{"dfs.create_us.r3", 40, func(ops int, _ int64) (time.Duration, int, error) { return dfsCreate(ops, wide, 3) }},
		{"dfs.pick_ns.allrep", 20_000, func(ops int, seed int64) (time.Duration, int, error) { return dfsPick(ops, wide, 0, seed) }},
		{"dfs.pick_ns.r3", 200_000, func(ops int, seed int64) (time.Duration, int, error) { return dfsPick(ops, wide, 3, seed) }},
		{"dfs.pick_ns.n4", 200_000, func(ops int, seed int64) (time.Duration, int, error) { return dfsPick(ops, 4, 0, seed) }},
		// One whole engine run at hunt_smoke's size, where assembly and
		// teardown outweigh the events: cost per run.
		{"engine.tiny_run_us", 12, func(ops int, seed int64) (time.Duration, int, error) {
			d, _, err := terasortRuns(ops, 0.02, seed)
			return d, 0, err
		}},
		// Paper-scale runs: host time per simulated kernel event.
		{"engine.terasort_us_per_event", 3, func(ops int, seed int64) (time.Duration, int, error) { return terasortRuns(ops, sz.scale, seed) }},
		{"core.dynamic_taskdone_ns", 1_000_000, coreTaskDone},
		{"scenario.parse_us", 200, scenarioParse},
		{"scenario.marshal_us", 200, scenarioMarshal},
		{"arrival.generate_ns_per_job", 200_000, arrivalGenerate},
	}
}

// simRing fires same-instant callbacks: the ring fast lane behind
// Broadcast/Notify and zero-delay sends.
func simRing(ops int, _ int64) (time.Duration, int, error) {
	k := sim.NewKernel()
	fn := func() {}
	for i := 0; i < ops; i++ {
		k.After(0, fn)
	}
	return timeIt(k.Run), 0, nil
}

// simHeap pushes events at pseudo-random future instants and fires them
// all: the heap's ordering path.
func simHeap(ops int, seed int64) (time.Duration, int, error) {
	k := sim.NewKernel()
	fn := func() {}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		k.After(time.Duration(rng.Int63n(1e9))+1, fn)
	}
	return timeIt(k.Run), 0, nil
}

// simResched is the failure-detector pattern: a deadline pushed back in
// place on every beat of a periodic event.
func simResched(ops int, _ int64) (time.Duration, int, error) {
	k := sim.NewKernel()
	deadline := k.After(10*time.Millisecond, func() {})
	left := ops
	var beat sim.Event
	beat = k.Every(time.Millisecond, func() {
		deadline.Reschedule(k.Now() + 10*time.Millisecond)
		if left--; left <= 0 {
			beat.Cancel()
			deadline.Cancel()
		}
	})
	return timeIt(k.Run), 0, nil
}

// simCancel schedules far-future events and cancels 15 of every 16, the
// speculation-timer pattern: lazy cancellation plus heap compaction.
func simCancel(ops int, _ int64) (time.Duration, int, error) {
	k := sim.NewKernel()
	fn := func() {}
	return timeIt(func() {
		for i := 0; i < ops; i++ {
			e := k.After(time.Duration(i)+time.Second, fn)
			if i%16 != 0 {
				e.Cancel()
			}
		}
		k.Run()
	}), 0, nil
}

// simHandoff bounces the dispatch baton between two processes by
// Park/Wake: the cross-goroutine handoff every blocking simulated call pays.
func simHandoff(ops int, _ int64) (time.Duration, int, error) {
	k := sim.NewKernel()
	var pa, pb *sim.Proc
	pa = k.Go("a", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			k.Wake(pb)
			p.Park()
		}
		k.Wake(pb)
	})
	pb = k.Go("b", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			p.Park()
			k.Wake(pa)
		}
		p.Park()
	})
	return timeIt(k.Run), 0, nil
}

// simMailbox is the driver's inbox pattern: a producer sends with latency,
// a consumer process receives.
func simMailbox(ops int, _ int64) (time.Duration, int, error) {
	k := sim.NewKernel()
	mb := sim.NewMailbox[int](k)
	got := 0
	k.Go("recv", func(p *sim.Proc) {
		for got < ops {
			mb.Recv(p)
			got++
		}
	})
	k.Go("send", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			mb.Send(time.Millisecond, i)
			p.Sleep(time.Microsecond)
		}
	})
	d := timeIt(k.Run)
	if got != ops {
		return 0, 0, fmt.Errorf("received %d of %d messages", got, ops)
	}
	return d, 0, nil
}

// psresServe churns `streams` concurrent 1 MiB requests through one
// HDD-curve processor-sharing server.
func psresServe(ops, streams int) (time.Duration, int, error) {
	k := sim.NewKernel()
	s := psres.NewServer(k, psres.Config{Name: "d", Curve: device.HDD7200().Curve(1)})
	per := ops / streams
	for i := 0; i < streams; i++ {
		k.Go("w", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				s.Serve(p, 1<<20, 1)
			}
		})
	}
	return timeIt(k.Run), per * streams, nil
}

// hddCurve evaluates the HDD bandwidth curve across its stream range, the
// call psres makes on every recompute.
func hddCurve(ops int, _ int64) (time.Duration, int, error) {
	curve := device.HDD7200().Curve(1)
	sum := 0.0
	d := timeIt(func() {
		for i := 0; i < ops; i++ {
			sum += curve(1 + i%64)
		}
	})
	runtime.KeepAlive(sum)
	return d, 0, nil
}

func clusterNew(ops, nodes int, seed int64) (time.Duration, int, error) {
	cfg := cluster.DAS5(nodes)
	cfg.Variability = device.DefaultVariability(seed)
	return timeIt(func() {
		for i := 0; i < ops; i++ {
			c := cluster.New(sim.NewKernel(), cfg)
			runtime.KeepAlive(float64(c.Size()))
		}
	}), 0, nil
}

// dfsCreate lays out wide_cluster's input file: 24 blocks of 64 MiB per
// node at the given replication (0 = every node holds every block).
func dfsCreate(ops, nodes, replication int) (time.Duration, int, error) {
	c := cluster.New(sim.NewKernel(), cluster.DAS5(nodes))
	var err error
	d := timeIt(func() {
		for i := 0; i < ops && err == nil; i++ {
			var f *dfs.File
			f, err = dfs.New(c, 64*device.MiB).Create("in", int64(nodes)*24*64*device.MiB, replication)
			if err == nil {
				runtime.KeepAlive(float64(len(f.Blocks)))
			}
		}
	})
	return d, 0, err
}

// dfsPick asks for the preferred replica of successive blocks with the
// reader cycling over the nodes and an empty bad set, as a task's first
// open of a block does.
func dfsPick(ops, nodes, replication int, seed int64) (time.Duration, int, error) {
	c := cluster.New(sim.NewKernel(), cluster.DAS5(nodes))
	fs := dfs.New(c, 64*device.MiB)
	f, err := fs.Create("in", int64(nodes)*24*64*device.MiB, replication)
	if err != nil {
		return 0, 0, err
	}
	reader := rand.New(rand.NewSource(seed)).Intn(nodes)
	missing := -1
	d := timeIt(func() {
		for i := 0; i < ops; i++ {
			src, ok := fs.PickReplica(f.Blocks[i%len(f.Blocks)], reader, nil)
			if !ok {
				missing = i % len(f.Blocks)
				return
			}
			runtime.KeepAlive(float64(src))
			if reader++; reader == nodes {
				reader = 0
			}
		}
	})
	if missing >= 0 {
		return 0, 0, fmt.Errorf("no replica for block %d", missing)
	}
	return d, 0, nil
}

// terasortRuns runs a 4-node Terasort under the dynamic policy `runs` times
// and returns the kernel events fired in total.
func terasortRuns(runs int, scale float64, seed int64) (time.Duration, int, error) {
	s := exp.Default().WithScale(scale)
	s.Seed = seed
	events := 0
	var err error
	d := timeIt(func() {
		for i := 0; i < runs && err == nil; i++ {
			var eng *engine.Engine
			w := simwork.Terasort(simwork.Config{Nodes: s.Nodes, Scale: s.Scale})
			if _, err = s.Run(w, core.DefaultDynamic(), func(e *engine.Engine) { eng = e }); err == nil {
				events += int(eng.Kernel().FiredEvents())
			}
		}
	})
	return d, events, err
}

// coreTaskDone feeds the dynamic controller a seeded stream of task
// measurements, restarting the hill climb every 64 tasks so the stream
// keeps exercising the analyse path rather than the locked fast path.
func coreTaskDone(ops int, seed int64) (time.Duration, int, error) {
	rng := rand.New(rand.NewSource(seed))
	stream := make([]job.TaskMetrics, 4096)
	for i := range stream {
		d := time.Duration(1+rng.Intn(2000)) * time.Millisecond
		stream[i] = job.TaskMetrics{
			Stage: 0, Index: i, End: d,
			BlockedIO:  time.Duration(rng.Int63n(int64(d))),
			BytesMoved: 1 + rng.Int63n(128<<20),
		}
	}
	ctl := core.DefaultDynamic().NewController(job.ExecutorInfo{ID: 0, Node: 0, MaxThreads: 32})
	meta := job.StageMeta{ID: 0, Name: "map", NumTasks: ops, IOMarked: true}
	threads := 0
	d := timeIt(func() {
		now := time.Duration(0)
		for i := 0; i < ops; i++ {
			if i%64 == 0 {
				threads = ctl.StageStart(meta)
			}
			tm := stream[i%len(stream)]
			tm.Start, tm.End = now, now+tm.End
			now = tm.End
			threads, _ = ctl.TaskDone(tm)
		}
	})
	runtime.KeepAlive(float64(threads))
	return d, 0, nil
}

func parsedGoldens() ([]goldenSpec, []*scenario.Spec, error) {
	specs, err := loadGoldens()
	if err != nil {
		return nil, nil, err
	}
	parsed := make([]*scenario.Spec, len(specs))
	for i, g := range specs {
		if parsed[i], err = scenario.Parse(g.name+".yaml", g.data); err != nil {
			return nil, nil, err
		}
	}
	return specs, parsed, nil
}

func scenarioParse(ops int, _ int64) (time.Duration, int, error) {
	specs, _, err := parsedGoldens()
	if err != nil {
		return 0, 0, err
	}
	d := timeIt(func() {
		for i := 0; i < ops && err == nil; i++ {
			g := specs[i%len(specs)]
			_, err = scenario.Parse(g.name+".yaml", g.data)
		}
	})
	return d, 0, err
}

func scenarioMarshal(ops int, _ int64) (time.Duration, int, error) {
	_, parsed, err := parsedGoldens()
	if err != nil {
		return 0, 0, err
	}
	return timeIt(func() {
		for i := 0; i < ops; i++ {
			runtime.KeepAlive(float64(len(scenario.Marshal(parsed[i%len(parsed)]))))
		}
	}), 0, nil
}

// arrivalGenerate draws an open-loop schedule from a bursty process over a
// two-class tenant mix, the generator behind the autoscale spec.
func arrivalGenerate(ops int, seed int64) (time.Duration, int, error) {
	spec := arrival.Spec{
		Proc: arrival.Bursty{OnRate: 1000, OffRate: 100, On: time.Second, Off: time.Second},
		Classes: []arrival.Class{
			{Name: "interactive", Weight: 3, Priority: 1},
			{Name: "batch", Weight: 1},
		},
		Seed:    seed,
		Horizon: time.Duration(ops+1) * time.Second,
		MaxJobs: ops,
	}
	var n int
	d := timeIt(func() { n = len(spec.Generate()) })
	if n != ops {
		return 0, 0, fmt.Errorf("generated %d of %d arrivals", n, ops)
	}
	return d, 0, nil
}
