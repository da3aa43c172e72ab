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
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/invariant"
	"sae/internal/telemetry"
)

// TestRecycledMessagesSurviveFaults sends the recycled control plane down
// every path on which a message or a fetch plan leaves its pool or outlives
// its task: a crash in mid-stage (the tasks running there finish as zombies,
// still holding their contexts), a second crash the instant after a wave of
// launches (they arrive at a dead executor and are dropped), a partition long
// enough to get a live executor declared lost and fenced (its completions
// reach a driver that has requeued them, and the beat that follows the
// partition is the one the driver fences it on), and a slowed executor under
// speculation (a losing copy reports to a set that has moved on). Heartbeats
// ride the same kind of list: the ticker takes one per beat and the driver loop
// gives it back once the detector has read it. Every list refills a block of
// messages at a time, so a message's neighbours in its block belong to other
// tasks while it is in flight. A message or a plan released
// too early, or twice, hands one task another's identity or input, and a beat
// released early reads as executor 0 of no epoch and goes unheard: the run
// must match, byte for byte, one that allocates them all afresh, a second run
// of itself — most likely on the first's spares — and the auditor's ledgers.
// The lists are read from the spares Wait gave back. CI runs it under -race.
func TestRecycledMessagesSurviveFaults(t *testing.T) {
	type outcome struct {
		rep     *engine.JobReport
		trace   []byte
		zombies int
		held    [5]int // what the spares keep (runSpares.Held)
	}
	run := func(crashAt time.Duration, recycle bool) outcome {
		var trace bytes.Buffer
		var eng *engine.Engine
		aud := invariant.New()
		spec, inputs := engine.TwoStageJob()
		opts := engine.GrayOptions(4, core.Static{IOThreads: 4})
		opts.Inputs = inputs
		opts.Replication = 3
		opts.Speculation = true
		opts.Trace, opts.TraceFormat = &trace, 2
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
	case slices.Contains(a.held[:], 0) || fresh.held != [5]int{}:
		// A recycling pool refills a block at a time, so each list keeps
		// spares, and Wait gathers the task contexts and keeps the tables;
		// an engine that recycles nothing allocates singly and gives back
		// nothing.
		t.Fatalf("launch, completion and heartbeat messages, task contexts and task-table entries the spares keep: %v, %v with recycling off: want some of each and none", a.held, fresh.held)
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
		opts.Trace, opts.TraceFormat = trace, 2
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
	opts.Inputs, opts.Replication, opts.Speculation = inputs, 3, true
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
		t.Fatalf("run A's spares hold %v: want messages, contexts and task tables for B to take", held)
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
		opts.Inputs, opts.Speculation = []engine.Input{{Name: "in", Size: in}}, true
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
// the bytes it allocated per task and the engine it ran on. onSetup, if set,
// runs from Options.OnSetup.
func observedRunBytesPerTask(t *testing.T, onSetup func(*engine.Engine)) (float64, *engine.Engine) {
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
	opts.Trace, opts.TraceFormat = io.Discard, 2
	opts.Audit = invariant.New()
	opts.Metrics, opts.MetricsInterval = telemetry.NewRegistry(), time.Second
	var eng *engine.Engine
	opts.OnSetup = func(e *engine.Engine) {
		if eng = e; onSetup != nil {
			onSetup(e)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := engine.Run(opts, spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / (2 * tasks)
	t.Logf("%.0f bytes per task over %d tasks, %s simulated", perTask, 2*tasks, rep.Runtime)
	return perTask, eng
}

// TestObservedRunBytesPerTask is a budget on what a run's bookkeeping costs in
// bytes when every observer is attached and the engine starts from no spares.
// The sample store, the output file's block list, the shuffle registry's
// output lists, the driver's task tables and duration ledgers and the
// auditor's shuffle ledgers are each sized once (DESIGN.md "What a run
// allocates"); grown by append instead, the same run allocated over twice the
// budget.
func TestObservedRunBytesPerTask(t *testing.T) {
	if engine.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	engine.DrainSpares()
	perTask, _ := observedRunBytesPerTask(t, nil)
	// 515 when written, 1019 with the first four grown by append; 509 with the
	// auditor's map mirror and the durations appended and copied to sort, 399
	// without.
	if perTask > 480 {
		t.Errorf("an observed run allocates %.0f bytes per task, budget 480", perTask)
	}
}

// TestWarmRunBytesPerTask: the second of two identical observed runs, on the
// first one's spares, finds its task tables, tickets, durations, map-output
// lists, task contexts and messages where the first left them. The hand-over
// is explicit, after draining the pool, so the second run gets exactly the
// first's spares whichever processor it runs on.
func TestWarmRunBytesPerTask(t *testing.T) {
	if engine.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	engine.DrainSpares()
	cold, first := observedRunBytesPerTask(t, nil)
	engine.DrainSpares()
	warm, _ := observedRunBytesPerTask(t, func(e *engine.Engine) { e.UseSpares(first.Spares()) })
	// 397 cold, 307 warm when written.
	if warm > 320 || warm >= cold {
		t.Errorf("a warm observed run allocates %.0f bytes per task (%.0f cold), budget 320", warm, cold)
	}
}
