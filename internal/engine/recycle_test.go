package engine_test

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/core"
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
// of itself, and the auditor's ledgers. CI runs it under -race.
func TestRecycledMessagesSurviveFaults(t *testing.T) {
	type outcome struct {
		rep     *engine.JobReport
		trace   []byte
		zombies int
		free    [3]int // launches, completions, heartbeats
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
		out := outcome{rep: rep, trace: trace.Bytes(), free: eng.FreeMessages()}
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
	case slices.Contains(a.free[:], 0) || fresh.free != [3]int{}:
		// A recycling pool refills a block at a time, so each list keeps
		// spares; one that recycles nothing allocates singly and keeps
		// none.
		t.Fatalf("launch, completion and heartbeat messages in the free lists at the end: %v, %v with recycling off: want some in each and none", a.free, fresh.free)
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

// TestObservedRunBytesPerTask is a budget on what a run's bookkeeping costs in
// bytes when every observer is attached: a map stage over a file and a reduce
// stage that fetches its shuffle and writes a DFS output, 8 nodes, under the
// auditor, a v2 trace and telemetry. The sample store, the output file's block
// list, the shuffle registry's output lists, the driver's task tables and
// duration ledgers and the auditor's shuffle ledgers are each sized once
// (DESIGN.md "What a run allocates"); grown by append instead, the same run
// allocated over twice the budget.
func TestObservedRunBytesPerTask(t *testing.T) {
	if engine.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := engine.Run(opts, spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / (2 * tasks)
	t.Logf("%.0f bytes per task over %d tasks, %s simulated", perTask, 2*tasks, rep.Runtime)
	// 515 when written, 1019 with the first four grown by append; 509 with the
	// auditor's map mirror and the durations appended and copied to sort, 399
	// without.
	if perTask > 480 {
		t.Errorf("an observed run allocates %.0f bytes per task, budget 480", perTask)
	}
}
