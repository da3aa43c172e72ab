package engine_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/dfs"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/invariant"
	"sae/internal/sim"
	"sae/internal/telemetry"
)

// TestRecycledStateSurvivesFaults sends the recycled state of a run down every
// path on which a fetch plan, a task context or a launch queued at an executor
// outlives its task or is dropped: a crash in mid-stage (the tasks running
// there finish as zombies, still holding their contexts and plans), a second
// crash the instant after a wave of launches (they arrive at a dead executor
// and are dropped, their plans with them), a partition long enough to get a
// live executor declared lost and fenced (its completions reach a driver that
// has requeued them, and the beat that follows the partition is the one the
// driver fences it on), and a slowed executor under speculation (a losing copy
// reports to a set that has moved on). The control-plane messages themselves
// travel by value in the mailboxes' arrays. A plan or a context released too
// early, or twice, hands one task another's input or state: the run must
// match, byte for byte, one that allocates them all afresh, a second run of
// itself — most likely on the first's spares — and the auditor's ledgers. The
// contexts and tables are read from the spares Wait gave back. CI runs it
// under -race.
func TestRecycledStateSurvivesFaults(t *testing.T) {
	type outcome struct {
		rep     *engine.JobReport
		trace   []byte
		zombies int
		held    [2]int // what the spares keep (runSpares.Held)
	}
	run := func(crashAt time.Duration, recycle bool) outcome {
		var trace bytes.Buffer
		var eng *engine.Engine
		aud := invariant.New()
		spec, inputs := engine.TwoStageJob()
		opts := engine.GrayOptions(4, core.Static{IOThreads: 4})
		opts.Inputs = inputs
		opts.Replication = 3
		opts.Config = engine.Conf(opts.Config, "speculation=true")
		opts.Trace = &trace
		opts.Audit = aud
		opts.OnSetup = func(e *engine.Engine) {
			if eng = e; !recycle {
				e.StopRecycling()
			}
		}
		opts.Faults = &chaos.Plan{
			Name:          "recycle",
			Seed:          11,
			Slows:         []chaos.Slow{{Exec: 1, At: time.Second, Factor: 6}},
			Partitions:    []chaos.Partition{{Exec: 1, At: 2 * time.Second, Duration: 5500 * time.Millisecond}},
			Crashes:       []chaos.Crash{{Exec: 3, At: 3 * time.Second, RestartAfter: 5 * time.Second}},
			TaskFaultRate: 0.08,
		}
		if crashAt > 0 {
			opts.Faults.Crashes = append(opts.Faults.Crashes, chaos.Crash{Exec: 2, At: crashAt, RestartAfter: 5 * time.Second})
		}
		rep, err := engine.Run(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		if vs := aud.Violations(); len(vs) > 0 {
			t.Fatalf("%d invariant violation(s), first: %s", len(vs), vs[0])
		}
		out := outcome{rep: rep, trace: trace.Bytes(), held: eng.Spares().Held()}
		for _, ex := range eng.Executors() {
			out.zombies += ex.Zombies()
		}
		return out
	}
	// The reduce stage of this very run, less the crash, says when its first
	// wave is launched: the crash lands while those messages are in flight.
	crashAt := run(0, true).rep.Stages[1].Start + engine.GrayOptions(4, nil).Cluster.ControlLatency/2
	a, b, fresh := run(crashAt, true), run(crashAt, true), run(crashAt, false)

	events, err := engine.ReadTrace(bytes.NewReader(a.trace))
	if err != nil {
		t.Fatal(err)
	}
	dropped, speculative := 0, 0
	for _, ev := range events {
		if ev.Type == engine.TraceTaskLaunch && ev.Exec == 2 && ev.At < crashAt.Seconds() && ev.At > (crashAt-time.Millisecond).Seconds() {
			dropped++
		}
	}
	for _, st := range a.rep.Stages {
		speculative += st.Speculative
	}
	switch {
	case dropped == 0:
		t.Fatal("no launch was in flight to the executor when it crashed")
	case a.rep.Fenced == 0:
		t.Fatal("no executor was fenced")
	case a.zombies == 0:
		t.Fatal("no task finished as a zombie")
	case speculative == 0:
		t.Fatal("no speculative copy ran")
	case slices.Contains(a.held[:], 0) || fresh.held != [2]int{}:
		// Wait gathers the task contexts and keeps the tables; an engine
		// that recycles nothing gives back nothing.
		t.Fatalf("task contexts and task-table entries the spares keep: %v, %v with recycling off: want some of each and none", a.held, fresh.held)
	}
	for _, o := range []struct {
		name string
		outcome
	}{{"a second run of the plan", b}, {"the run that recycles nothing", fresh}} {
		if !reflect.DeepEqual(a.rep, o.rep) || a.zombies != o.zombies {
			t.Fatalf("%s reports differently:\n%+v\n%+v", o.name, a.rep, o.rep)
		}
		if !bytes.Equal(a.trace, o.trace) {
			t.Fatalf("%s wrote a different trace", o.name)
		}
	}
}

// TestSparesDoNotLeakAcrossRuns: a run on an earlier run's spares neither
// disturbs what that run reported nor reads anything it left behind. Run A —
// crashes, a partition that gets an executor fenced, a slowed executor under
// speculation and flaky tasks, under the auditor, a v2 trace and telemetry —
// gives its spares back; run B, a job of another shape on another cluster,
// with a crash of its own, takes them. A's report must render as it did before
// B ran, and B must match, report and trace byte for byte, B on a drained pool.
// CI runs it under -race.
func TestSparesDoNotLeakAcrossRuns(t *testing.T) {
	render := func(rep *engine.JobReport) string { return rep.String() + fmt.Sprintf("%+v", *rep) }
	observe := func(opts *engine.Options, trace io.Writer) *invariant.Auditor {
		aud := invariant.New()
		opts.Trace = trace
		opts.Audit = aud
		opts.Metrics, opts.MetricsInterval = telemetry.NewRegistry(), time.Second
		return aud
	}
	run := func(name string, opts engine.Options, spec *job.JobSpec, aud *invariant.Auditor) *engine.JobReport {
		t.Helper()
		rep, err := engine.Run(opts, spec)
		if err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		if vs := aud.Violations(); len(vs) > 0 {
			t.Fatalf("run %s: %d invariant violation(s), first: %s", name, len(vs), vs[0])
		}
		return rep
	}

	spec, inputs := engine.TwoStageJob()
	opts := engine.GrayOptions(4, core.Static{IOThreads: 4})
	opts.Inputs, opts.Replication = inputs, 3
	opts.Config = engine.Conf(opts.Config, "speculation=true")
	opts.Faults = &chaos.Plan{
		Name:          "spares-a",
		Seed:          11,
		Slows:         []chaos.Slow{{Exec: 1, At: time.Second, Factor: 6}},
		Partitions:    []chaos.Partition{{Exec: 1, At: 2 * time.Second, Duration: 5500 * time.Millisecond}},
		Crashes:       []chaos.Crash{{Exec: 3, At: 3 * time.Second, RestartAfter: 5 * time.Second}},
		TaskFaultRate: 0.08,
	}
	var a *engine.Engine
	opts.OnSetup = func(e *engine.Engine) { a = e }
	aud := observe(&opts, io.Discard)
	engine.DrainSpares()
	repA := run("A", opts, spec, aud)
	before := render(repA)
	if repA.Fenced == 0 || repA.LostExecutors == 0 || repA.Stages[1].Speculative == 0 {
		t.Fatalf("run A: %d fenced, %d executors lost, %d speculative copies; want some of each",
			repA.Fenced, repA.LostExecutors, repA.Stages[1].Speculative)
	}
	if held := a.Spares().Held(); slices.Contains(held[:], 0) {
		t.Fatalf("run A's spares hold %v: want contexts and task tables for B to take", held)
	}

	// B: a join of two map stages of other widths on six nodes, under another
	// policy, with an executor crashing in the first wave.
	in := int64(40 * 64 * device.MiB)
	specB := func() *job.JobSpec {
		return &job.JobSpec{Name: "spares-b", Stages: []*job.StageSpec{
			{ID: 0, Name: "left", InputFile: "in", CPUSecondsPerTask: 0.3, ShuffleWriteBytes: device.GiB},
			{ID: 1, Name: "right", NumTasks: 12, CPUSecondsPerTask: 0.5, ShuffleWriteBytes: device.GiB / 2},
			{ID: 2, Name: "join", NumTasks: 20, ShuffleFrom: []int{0, 1}, CPUSecondsPerTask: 0.2,
				OutputFile: "out", OutputBytes: device.GiB},
		}}
	}
	runB := func(spares func(*engine.Engine)) (*engine.JobReport, []byte) {
		var trace bytes.Buffer
		opts := engine.GrayOptions(6, core.Default{})
		opts.Inputs = []engine.Input{{Name: "in", Size: in}}
		opts.Config = engine.Conf(opts.Config, "speculation=true")
		opts.Faults = &chaos.Plan{
			Name:          "spares-b",
			Seed:          5,
			Crashes:       []chaos.Crash{{Exec: 2, At: 4 * time.Second, RestartAfter: 6 * time.Second}},
			TaskFaultRate: 0.05,
		}
		opts.OnSetup = spares
		aud := observe(&opts, &trace)
		return run("B", opts, specB(), aud), trace.Bytes()
	}
	engine.DrainSpares()
	got, gotTrace := runB(func(e *engine.Engine) { e.UseSpares(a.Spares()) })
	engine.DrainSpares()
	want, wantTrace := runB(nil)

	if want.LostExecutors == 0 {
		t.Fatal("run B lost no executor")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run B on A's spares reports differently from B on none:\n%s\n%s", render(got), render(want))
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatal("run B on A's spares wrote a different trace from B on none")
	}
	if after := render(repA); after != before {
		t.Fatalf("run A's report changed when B ran on its spares:\n%s\n%s", before, after)
	}
}

// observedRunBytesPerTask runs TestObservedRunBytesPerTask's job — a map stage
// over a file and a reduce stage that fetches its shuffle and writes a DFS
// output, 8 nodes, under the auditor, a v2 trace and telemetry — and returns
// the bytes it allocated per task and the engine it ran on. The engine runs on
// on's spares, machine and input tables included, or on spares of its own if
// on is nil.
func observedRunBytesPerTask(t *testing.T, on *engine.Engine) (float64, *engine.Engine) {
	t.Helper()
	const tasks = 1024
	size := int64(tasks) * 64 << 20
	spec := &job.JobSpec{Name: "budget", Stages: []*job.StageSpec{
		{ID: 0, Name: "map", InputFile: "in", CPUSecondsPerTask: 0.2, ShuffleWriteBytes: size},
		{ID: 1, Name: "reduce", NumTasks: tasks, ShuffleFrom: []int{0}, CPUSecondsPerTask: 0.2,
			OutputFile: "out", OutputBytes: size},
	}}
	opts := engine.GrayOptions(8, core.Static{IOThreads: 4})
	opts.Inputs = []engine.Input{{Name: "in", Size: size}}
	opts.Trace = io.Discard
	opts.Audit = invariant.New()
	opts.Metrics, opts.MetricsInterval = telemetry.NewRegistry(), time.Second
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var e *engine.Engine
	var err error
	if on != nil {
		e, err = engine.NewEngineOn(opts, on.Spares())
	} else {
		e, err = engine.NewEngineOn(opts, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Report()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / (2 * tasks)
	t.Logf("%.0f bytes per task over %d tasks, %s simulated", perTask, 2*tasks, rep.Runtime)
	return perTask, e
}

// TestObservedRunBytesPerTask is a budget on what a run's bookkeeping costs in
// bytes when every observer is attached and the engine starts from no spares.
// The sample store, the shuffle registry's output lists, the driver's task
// tables and duration ledgers and the auditor's shuffle ledgers are each sized
// once (DESIGN.md "What a run allocates"), and the output file keeps a byte
// count per node instead of a block per write; grown by append instead, the
// same run allocated over twice the budget.
func TestObservedRunBytesPerTask(t *testing.T) {
	if engine.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	engine.DrainSpares()
	perTask, _ := observedRunBytesPerTask(t, nil)
	// 515 when written, 1019 with the first four grown by append; 509 with the
	// auditor's map mirror and the durations appended and copied to sort, 399
	// without; 312 with no output blocks recorded; 251 with telemetry ticks
	// that keep only the values that moved.
	if perTask > 276 {
		t.Errorf("an observed run allocates %.0f bytes per task, budget 276", perTask)
	}
}

// TestWarmRunBytesPerTask: the second of two identical observed runs, on the
// first one's spares, finds its task tables, tickets, durations, map-output
// lists, task contexts and simulated machine where the first left them, and
// its input block table in the list the first one's file system added it to.
// The hand-over is explicit, through NewEngineOn, so the second run gets
// exactly the first's spares, and gets them before it creates its input.
func TestWarmRunBytesPerTask(t *testing.T) {
	if engine.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	engine.DrainSpares()
	cold, first := observedRunBytesPerTask(t, nil)
	warm, _ := observedRunBytesPerTask(t, first)
	// 397 cold, 307 warm when written; 312 cold, 219 warm with no output
	// blocks recorded; 166 warm with spares handed over from OnSetup, after
	// the machine was assembled and the input laid out; 125 handed over to
	// NewEngineOn, 101 when its file system also reuses the input table (then
	// handed over in the spares, now from the process's list).
	if warm > 110 || warm >= cold {
		t.Errorf("a warm observed run allocates %.0f bytes per task (%.0f cold), budget 110", warm, cold)
	}
}

// TestSpareStackIsBounded: however many engines give their spares back, the
// stack keeps at most GOMAXPROCS sets, read at each give-back, the last given
// back on top. CI runs it under -race.
func TestSpareStackIsBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	engine.DrainSpares()
	spec, inputs := engine.TwoStageJob()
	opts := engine.GrayOptions(4, core.Static{IOThreads: 4})
	opts.Inputs = inputs
	start := func() *engine.Engine {
		e, err := engine.NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(spec); err != nil {
			t.Fatal(err)
		}
		return e
	}
	var engines []*engine.Engine
	for range 5 {
		engines = append(engines, start())
	}
	for i, e := range engines {
		if err := e.Wait(); err != nil {
			t.Fatal(err)
		}
		if n := engine.StackedSpares(); n != min(i+1, 2) {
			t.Fatalf("after %d give-backs at GOMAXPROCS 2 the stack holds %d sets, want %d", i+1, n, min(i+1, 2))
		}
	}
	runtime.GOMAXPROCS(1)
	last := start()
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := engine.StackedSpares(); n != 1 {
		t.Fatalf("a give-back at GOMAXPROCS 1 left %d sets on the stack, want 1", n)
	}
	if next := start(); next.Spares() != last.Spares() {
		t.Fatal("the next engine did not start on the spares given back last")
	}
}

// TestSparesSurviveCollections: the spares a run gives back outlast two
// collections, so the next engine of an idle process starts on them rather
// than cold — a sync.Pool alone is empty by then. CI runs it under -race.
func TestSparesSurviveCollections(t *testing.T) {
	var engines []*engine.Engine
	engine.DrainSpares()
	for range 2 {
		spec, inputs := engine.TwoStageJob()
		opts := engine.GrayOptions(4, core.Static{IOThreads: 4})
		opts.Inputs = inputs
		opts.OnSetup = func(e *engine.Engine) { engines = append(engines, e) }
		if _, err := engine.Run(opts, spec); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
	}
	if engines[1].Spares() != engines[0].Spares() {
		t.Fatal("after two collections the next engine started on new spares, not the ones the last run gave back")
	}
}

// TestRecycledMachineDoesNotLeakAcrossRuns hands one run's simulated machine —
// the kernel's event structs, heap and ring, the devices' stream tables and
// overload memos, the mailboxes' queues, the executors' launch queues — to
// runs on other hardware. Run A, eight SSD nodes under speculation, audited
// and traced, has an executor crash in mid-stage, so streams it queued finish
// as zombies after the crash. Run C, two HDD nodes, is cut short on A's
// leftovers with a launch queued at an executor. Run B, four HDD nodes and a
// job of another shape with a crash of its own, runs on what A and C left: its
// report and trace must equal B's on a machine of its own, and A's report must
// render as it did before B ran. Run D, B at replication 2, runs on what B
// left, whose file system laid an input of the same name and size out on every
// node, and a second D on what the first left: both must equal D on a machine
// of its own, and both take from the list of recent tables the one D on a
// machine of its own laid out, not B's. CI runs it under -race.
func TestRecycledMachineDoesNotLeakAcrossRuns(t *testing.T) {
	render := func(rep *engine.JobReport) string { return rep.String() + fmt.Sprintf("%+v", *rep) }
	run := func(name string, opts engine.Options, spec *job.JobSpec, on *engine.Engine) (*engine.Engine, *engine.JobReport, []byte) {
		t.Helper()
		var trace bytes.Buffer
		aud := invariant.New()
		opts.Trace, opts.Audit = &trace, aud
		var e *engine.Engine
		var err error
		if on != nil {
			e, err = engine.NewEngineOn(opts, on.Spares())
		} else {
			e, err = engine.NewEngineOn(opts, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Wait(); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		rep, err := h.Report()
		if err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		if vs := aud.Violations(); len(vs) > 0 {
			t.Fatalf("run %s: %d invariant violation(s), first: %s", name, len(vs), vs[0])
		}
		return e, rep, trace.Bytes()
	}

	spec, inputs := engine.TwoStageJob()
	optsA := engine.GrayOptions(8, core.Static{IOThreads: 4})
	optsA.Cluster.Disk = device.SSDSata()
	optsA.Inputs = inputs
	optsA.Config = engine.Conf(optsA.Config, "speculation=true")
	optsA.Faults = &chaos.Plan{
		Name:    "machine-a",
		Seed:    3,
		Slows:   []chaos.Slow{{Exec: 5, At: time.Second, Factor: 5}},
		Crashes: []chaos.Crash{{Exec: 2, At: 2 * time.Second, RestartAfter: 3 * time.Second}},
	}
	engine.DrainSpares()
	a, repA, _ := run("A", optsA, spec, nil)
	before := render(repA)
	zombies := 0
	for _, ex := range a.Executors() {
		zombies += ex.Zombies()
	}
	if zombies == 0 || repA.LostExecutors == 0 || repA.Stages[1].Speculative == 0 {
		t.Fatalf("run A: %d zombie completions, %d executors lost, %d speculative copies; want some of each",
			zombies, repA.LostExecutors, repA.Stages[1].Speculative)
	}
	if held := a.Spares().MachineHeld(); slices.Contains(held[:], false) {
		t.Fatalf("run A's spares hold kernel events, device tables, driver and executor mailboxes: %v, want all", held)
	}

	// Run C, queueingRun on A's machine, is cut short the first time a
	// launch waits in an executor's local queue. That queue goes back
	// non-empty, and B's executor on the node would start C's launches if it
	// took it.
	optsC, specC := queueingRun()
	c, err := engine.NewEngineOn(optsC, a.Spares())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(specC); err != nil {
		t.Fatal(err)
	}
	queued := -1
	var tick sim.Event
	tick = c.Kernel().Every(optsC.Cluster.ControlLatency, func() {
		for i, ex := range c.Executors() {
			if ex.Queued() > 0 {
				queued = i
				c.Kernel().Stop()
				return
			}
		}
		if c.Kernel().Now() > 10*time.Minute {
			tick.Cancel()
		}
	})
	if err := c.Wait(); err == nil || queued < 0 {
		t.Fatalf("run C: %v, executor %d with launches queued when it stopped; want an error and one", err, queued)
	}
	if a.Spares().QueueArrays()[queued] != 0 {
		t.Fatalf("run C gave back executor %d's launch queue with launches in it", queued)
	}

	in := int64(40 * 64 * device.MiB)
	specB := &job.JobSpec{Name: "machine-b", Stages: []*job.StageSpec{
		{ID: 0, Name: "left", InputFile: "in", CPUSecondsPerTask: 0.3, ShuffleWriteBytes: device.GiB},
		{ID: 1, Name: "right", NumTasks: 12, CPUSecondsPerTask: 0.5, ShuffleWriteBytes: device.GiB / 2},
		{ID: 2, Name: "join", NumTasks: 20, ShuffleFrom: []int{0, 1}, CPUSecondsPerTask: 0.2,
			OutputFile: "out", OutputBytes: device.GiB},
	}}
	optsB := engine.GrayOptions(4, core.Default{})
	optsB.Inputs = []engine.Input{{Name: "in", Size: in}}
	optsB.Config = engine.Conf(optsB.Config, "speculation=true")
	optsB.Faults = &chaos.Plan{
		Name:          "machine-b",
		Seed:          5,
		Crashes:       []chaos.Crash{{Exec: 1, At: 4 * time.Second, RestartAfter: 6 * time.Second}},
		TaskFaultRate: 0.05,
	}
	b, got, gotTrace := run("B on A's and C's machine", optsB, specB, a)
	_, want, wantTrace := run("B", optsB, specB, nil)
	if want.LostExecutors == 0 {
		t.Fatal("run B lost no executor")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run B on A's and C's machine reports differently from B on its own:\n%s\n%s", render(got), render(want))
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatal("run B on A's and C's machine wrote a different trace from B on its own")
	}
	if after := render(repA); after != before {
		t.Fatalf("run A's report changed when B ran on its machine:\n%s\n%s", before, after)
	}

	// Run D is B at replication 2: B's input by name, size and cluster, which
	// B's file system laid out on every node. On B's machine D must not take
	// B's table for "in" but the list's for replication 2, which D on a machine
	// of its own laid out, and so must a second D on the first's machine; both
	// report and trace as D does on a machine of its own.
	optsD := optsB
	optsD.Replication = 2
	own, want, wantTrace := run("D", optsD, specB, nil)
	d, got, gotTrace := run("D on B's machine", optsD, specB, b)
	d2, got2, gotTrace2 := run("D on D's machine", optsD, specB, d)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got2, want) {
		t.Fatalf("run D on B's and on D's machine reports differently from D on its own:\n%s\n%s\n%s",
			render(got), render(got2), render(want))
	}
	if !bytes.Equal(gotTrace, wantTrace) || !bytes.Equal(gotTrace2, wantTrace) {
		t.Fatal("run D on B's or on D's machine wrote a different trace from D on its own")
	}
	table := func(e *engine.Engine) *dfs.Block {
		f, err := e.FS().Open("in")
		if err != nil {
			t.Fatal(err)
		}
		return &f.Blocks[0]
	}
	if table(d) == table(b) || table(d) != table(own) || table(d2) != table(d) {
		t.Fatalf("D's input table is B's: %v, is D's on a machine of its own: %v, the second D's is the first's: %v; want false, true and true",
			table(d) == table(b), table(d) == table(own), table(d2) == table(d))
	}
}

// queueingRun is a job whose dynamic pools shrink below the launches already
// in flight to them, so its executors queue launches locally (the paper's
// §5.3 integrity concern): two nodes, a 64-task map stage and a 64-task
// reduce.
func queueingRun() (engine.Options, *job.JobSpec) {
	const tasks = 64
	in := int64(tasks * 64 * device.MiB)
	spec := &job.JobSpec{Name: "queueing", Stages: []*job.StageSpec{
		{ID: 0, Name: "map", InputFile: "in", CPUSecondsPerTask: 0.5, ShuffleWriteBytes: in / 2},
		{ID: 1, Name: "reduce", NumTasks: tasks, ShuffleFrom: []int{0}, CPUSecondsPerTask: 0.5},
	}}
	opts := engine.GrayOptions(2, core.DefaultDynamic())
	opts.Inputs = []engine.Input{{Name: "in", Size: in}}
	return opts, spec
}

// TestRecycledLaunchQueue: an executor's local launch queue goes back with the
// machine, and the next engine's executor on the node starts with its array.
// queueingRun's queues are empty when it ends, so its spares keep the arrays;
// a second run of the job on them queues its launches into those arrays and
// must report as the first run did.
func TestRecycledLaunchQueue(t *testing.T) {
	opts, spec := queueingRun()
	run := func(e *engine.Engine) *engine.JobReport {
		t.Helper()
		h, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Wait(); err != nil {
			t.Fatal(err)
		}
		rep, err := h.Report()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, err := engine.NewEngineOn(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := run(a)
	arrays := a.Spares().QueueArrays()
	if !slices.ContainsFunc(arrays, func(p uintptr) bool { return p != 0 }) {
		t.Fatal("the spares keep no launch queue: no executor queued a launch, or its queue was not given back")
	}
	b, err := engine.NewEngineOn(opts, a.Spares())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range arrays {
		if p != 0 && b.Executors()[i].QueueArray() != p {
			t.Errorf("executor %d of the next engine did not start with the queue the last run gave back", i)
		}
	}
	if slices.ContainsFunc(a.Spares().QueueArrays(), func(p uintptr) bool { return p != 0 }) {
		t.Error("the spares still hold a queue the next engine took")
	}
	if second := run(b); !reflect.DeepEqual(first, second) {
		t.Fatalf("the run on the recycled queues reports differently:\n%s\n%s", first, second)
	}
}

// TestFinishedRunExportHolds: a finished run's telemetry export reads nothing
// of its engine — the engine freezes its function-backed instruments as the
// run closes — so it is the same after another engine has run a crashing job
// on its spares, machine and mailboxes included. Joining a child registry
// (telemetry.Registry.Join) relies on this: the final values it takes are the
// ones the child holds when it joins, however long after its run ended.
func TestFinishedRunExportHolds(t *testing.T) {
	export := func(reg *telemetry.Registry) string {
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	run := func(opts engine.Options, spec *job.JobSpec, on *engine.Engine) *engine.Engine {
		t.Helper()
		var e *engine.Engine
		var err error
		if on != nil {
			e, err = engine.NewEngineOn(opts, on.Spares())
		} else {
			e, err = engine.NewEngineOn(opts, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if err := e.Wait(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	engine.DrainSpares()
	spec, inputs := engine.TwoStageJob()
	opts := engine.GrayOptions(4, core.Static{IOThreads: 4})
	opts.Inputs = inputs
	reg := telemetry.NewRegistry()
	opts.Metrics = reg
	a := run(opts, spec, nil)
	before := export(reg)

	optsB := engine.GrayOptions(4, core.DefaultDynamic())
	optsB.Inputs = inputs
	optsB.Faults = &chaos.Plan{Name: "b", Crashes: []chaos.Crash{{Exec: 1, At: time.Second}}}
	run(optsB, spec, a)
	if after := export(reg); after != before {
		t.Fatalf("run A's export changed after run B took its spares:\n%s\nwas\n%s", after, before)
	}
}
