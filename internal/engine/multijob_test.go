package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine/job"
)

// pipelineJob is a map+reduce job reading its own input file, sized so two
// of them keep a 4-node cluster busy long enough to overlap.
func pipelineJob(name string, blocks int) (*job.JobSpec, Input) {
	in := int64(blocks) * 64 * device.MiB
	shuffle := in / 2
	out := in / 4
	spec := &job.JobSpec{
		Name: name,
		Stages: []*job.StageSpec{
			{ID: 0, Name: "map", InputFile: name + "/in", CPUSecondsPerTask: 0.15,
				ShuffleWriteBytes: shuffle},
			{ID: 1, Name: "reduce", NumTasks: 2 * blocks, ShuffleFrom: []int{0},
				CPUSecondsPerTask: 0.1, OutputFile: name + "/out", OutputBytes: out},
		},
	}
	return spec, Input{Name: name + "/in", Size: in}
}

// runTwoJobs runs two pipeline jobs concurrently and returns their reports.
func runTwoJobs(t *testing.T, opts Options) [2]*JobReport {
	t.Helper()
	specA, inA := pipelineJob("alpha", 16)
	specB, inB := pipelineJob("beta", 16)
	opts.Inputs = append(opts.Inputs, inA, inB)
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := e.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := e.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	var reps [2]*JobReport
	for i, h := range []*JobHandle{ha, hb} {
		rep, err := h.Report()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		reps[i] = rep
	}
	return reps
}

// TestMultiJobDeterminism replays two concurrent jobs under chaos and
// speculation and demands byte-identical reports and traces — the refactor's
// non-negotiable: the multi-job scheduler must stay fully deterministic.
func TestMultiJobDeterminism(t *testing.T) {
	run := func() ([2]*JobReport, []byte) {
		var trace bytes.Buffer
		opts := testOptions(4, core.DefaultDynamic())
		opts.Trace = &trace
		opts.Config = Conf(opts.Config, "speculation=true")
		opts.Faults = &chaos.Plan{
			Name: "multistorm", Seed: 11,
			TaskFaultRate: 0.05, FetchFaultRate: 0.05,
			Crashes: []chaos.Crash{{Exec: 1, At: 20 * time.Second, RestartAfter: 30 * time.Second}},
		}
		return runTwoJobs(t, opts), trace.Bytes()
	}
	reps1, trace1 := run()
	reps2, trace2 := run()
	for i := range reps1 {
		if !reflect.DeepEqual(reps1[i], reps2[i]) {
			t.Errorf("job %d report differs between identical runs:\n%v\nvs\n%v",
				i, reps1[i], reps2[i])
		}
	}
	if !bytes.Equal(trace1, trace2) {
		t.Error("traces differ between identical runs")
	}
}

// TestPolicyConservation is the property check: whichever scheduler.mode
// carves up the executor slots, each job still runs every task and moves
// every byte exactly once.
func TestPolicyConservation(t *testing.T) {
	var got [2][2]*JobReport
	for i, mode := range []string{"FIFO", "FAIR"} {
		opts := testOptions(4, core.Default{})
		opts.Config = Conf(nil, "scheduler.mode="+mode)
		got[i] = runTwoJobs(t, opts)
	}
	for j := 0; j < 2; j++ {
		fifo, fair := got[0][j], got[1][j]
		if fifo.Sched != "FIFO" || fair.Sched != "FAIR" {
			t.Fatalf("job %d: Sched = %q / %q", j, fifo.Sched, fair.Sched)
		}
		for s := range fifo.Stages {
			tf, tr := 0, 0
			for _, e := range fifo.Stages[s].Execs {
				tf += e.Tasks
			}
			for _, e := range fair.Stages[s].Execs {
				tr += e.Tasks
			}
			if tf != tr {
				t.Errorf("job %d stage %d: %d tasks under FIFO, %d under FAIR", j, s, tf, tr)
			}
		}
		if fifo.DiskReadBytes != fair.DiskReadBytes || fifo.DiskWriteBytes != fair.DiskWriteBytes {
			t.Errorf("job %d: I/O differs across policies: read %d/%d write %d/%d",
				j, fifo.DiskReadBytes, fair.DiskReadBytes, fifo.DiskWriteBytes, fair.DiskWriteBytes)
		}
	}
}

// TestPerJobIOAttribution pins the per-job I/O accounting: with two jobs
// sharing the cluster, each job's report must count exactly its own bytes —
// input + shuffle fetch on the read side, shuffle spill + output on the
// write side — not the cluster-wide deltas of the old single-job driver.
func TestPerJobIOAttribution(t *testing.T) {
	reps := runTwoJobs(t, testOptions(4, core.Default{}))
	for i, rep := range reps {
		in := int64(16) * 64 * device.MiB
		shuffle, out := in/2, in/4
		if rep.DiskReadBytes != in+shuffle {
			t.Errorf("job %d disk read = %d, want %d", i, rep.DiskReadBytes, in+shuffle)
		}
		if rep.DiskWriteBytes != shuffle+out {
			t.Errorf("job %d disk write = %d, want %d", i, rep.DiskWriteBytes, shuffle+out)
		}
	}
}

// diamondJob has two independent map stages feeding one join stage — the
// smallest DAG where concurrent stage execution is observable.
func diamondJob(dep bool) (*job.JobSpec, []Input) {
	in := int64(8) * 64 * device.MiB
	left := &job.StageSpec{ID: 0, Name: "left", InputFile: "d/left",
		CPUSecondsPerTask: 0.2, ShuffleWriteBytes: in / 2}
	right := &job.StageSpec{ID: 1, Name: "right", InputFile: "d/right",
		CPUSecondsPerTask: 0.2, ShuffleWriteBytes: in / 2}
	if dep {
		right.DependsOn = []int{0}
	}
	join := &job.StageSpec{ID: 2, Name: "join", NumTasks: 16, ShuffleFrom: []int{0, 1},
		CPUSecondsPerTask: 0.1}
	spec := &job.JobSpec{Name: "diamond", Stages: []*job.StageSpec{left, right, join}}
	return spec, []Input{{Name: "d/left", Size: in}, {Name: "d/right", Size: in}}
}

// TestDAGRunsIndependentStagesConcurrently checks that sibling stages with
// no edge between them overlap on the cluster, and that the join still
// waits for both.
func TestDAGRunsIndependentStagesConcurrently(t *testing.T) {
	spec, inputs := diamondJob(false)
	opts := testOptions(4, core.Default{})
	opts.Inputs = inputs
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	l, r, j := rep.Stages[0], rep.Stages[1], rep.Stages[2]
	if l.Start != r.Start {
		t.Errorf("independent root stages started at %v and %v, want together", l.Start, r.Start)
	}
	if r.Start >= l.End {
		t.Errorf("stage windows do not overlap: right starts %v, left ends %v", r.Start, l.End)
	}
	if j.Start < l.End || j.Start < r.End {
		t.Errorf("join started %v before both parents ended (%v, %v)", j.Start, l.End, r.End)
	}
}

// TestDependsOnSerializesStages checks that a control-dependency edge (no
// shuffle) forces strict ordering.
func TestDependsOnSerializesStages(t *testing.T) {
	spec, inputs := diamondJob(true)
	opts := testOptions(4, core.Default{})
	opts.Inputs = inputs
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages[1].Start < rep.Stages[0].End {
		t.Errorf("DependsOn violated: stage 1 started %v before stage 0 ended %v",
			rep.Stages[1].Start, rep.Stages[0].End)
	}
}

// TestFairSharePrefersLightJobs pits a long job against a short one
// submitted together: under FIFO the short job queues behind the long one's
// task backlog; under FAIR it gets its share of slots and finishes earlier.
func TestFairSharePrefersLightJobs(t *testing.T) {
	shortRuntime := func(mode string) time.Duration {
		long, inLong := pipelineJob("long", 64)
		short, inShort := pipelineJob("short", 4)
		// Static{4} caps the cluster at 16 slots so the long job's task
		// backlog actually queues — with ample slots the policies tie.
		opts := testOptions(4, core.Static{IOThreads: 4})
		opts.Config = Conf(nil, "scheduler.mode="+mode)
		opts.Inputs = []Input{inLong, inShort}
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(long); err != nil {
			t.Fatal(err)
		}
		h, err := e.Submit(short)
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
		return rep.Runtime
	}
	fifo := shortRuntime("FIFO")
	fair := shortRuntime("FAIR")
	if fair >= fifo {
		t.Errorf("short job: %v under FAIR, %v under FIFO — fair share should help it", fair, fifo)
	}
}

// TestSubmitAtStaggersAdmission checks that a job submitted mid-run is
// admitted at its submission time and its runtime is measured from there.
func TestSubmitAtStaggersAdmission(t *testing.T) {
	specA, inA := pipelineJob("alpha", 16)
	specB, inB := pipelineJob("beta", 4)
	opts := testOptions(4, core.Default{})
	opts.Inputs = []Input{inA, inB}
	var trace bytes.Buffer
	opts.Trace = &trace
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(specA); err != nil {
		t.Fatal(err)
	}
	late := 30 * time.Second
	h, err := e.SubmitAt(late, specB)
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
	if rep.Stages[0].Start < late {
		t.Errorf("late job started at %v, before its submission time %v", rep.Stages[0].Start, late)
	}
	if got := rep.Stages[len(rep.Stages)-1].End - late; got != rep.Runtime {
		t.Errorf("runtime = %v, want measured from submission: %v", rep.Runtime, got)
	}
	events := TraceEvents(t, &trace)
	starts := map[int]float64{}
	for _, ev := range events {
		if ev.Type == TraceJobStart {
			starts[ev.Job] = ev.At
		}
	}
	if len(starts) != 2 || starts[1] != late.Seconds() {
		t.Errorf("job_start events = %v, want job 1 at %v", starts, late.Seconds())
	}
}

// TestJobFailureIsolated checks that one job aborting does not take down
// its neighbours on the same engine.
func TestJobFailureIsolated(t *testing.T) {
	good, inGood := pipelineJob("good", 8)
	bad := &job.JobSpec{
		Name: "bad",
		Stages: []*job.StageSpec{{
			ID: 0, Name: "explode", NumTasks: 8,
			Work: opsThen(func(job.TaskContext) error { return fmt.Errorf("boom") }, computeOp(0.05)),
		}},
	}
	opts := testOptions(4, core.Default{})
	opts.Inputs = []Input{inGood}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	hg, err := e.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := e.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Fatalf("engine failed wholesale: %v", err)
	}
	if _, err := hb.Report(); err == nil {
		t.Fatal("failing job reported success")
	}
	rep, err := hg.Report()
	if err != nil {
		t.Fatalf("healthy job dragged down by its neighbour: %v", err)
	}
	if rep.Runtime <= 0 {
		t.Fatal("healthy job has no runtime")
	}
}

// TestDecisionsGroupedByJob runs two jobs on one engine while an executor
// crashes and restarts mid-run. Each report holds its own job's decisions of
// every incarnation, and nothing logged after a job finished reaches its
// report: every row is exactly as long as its capacity (so a later append to
// the executor's logs cannot land in it), no decision postdates the job, and
// the first job's thread-log rows are prefixes of the second's.
func TestDecisionsGroupedByJob(t *testing.T) {
	run := func(faults *chaos.Plan) (*Engine, [2]*JobReport) {
		specA, inA := pipelineJob("alpha", 16)
		specB, inB := pipelineJob("beta", 8)
		opts := testOptions(4, core.DefaultDynamic())
		opts.Config = Conf(nil, "scheduler.mode=FAIR") // both jobs run from the start
		opts.Inputs = []Input{inA, inB}
		opts.Faults = faults
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		var hs [2]*JobHandle
		for i, spec := range []*job.JobSpec{specA, specB} {
			if hs[i], err = e.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Wait(); err != nil {
			t.Fatal(err)
		}
		var reps [2]*JobReport
		for i, h := range hs {
			if reps[i], err = h.Report(); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
		return e, reps
	}
	_, quiet := run(nil)
	crashAt := min(quiet[0].Runtime, quiet[1].Runtime) * 3 / 5
	restart := crashAt + crashAt/8
	e, reps := run(chaos.CrashRestart(1, crashAt, restart-crashAt))
	if reps[0].LostExecutors != 1 || reps[1].LostExecutors != 1 {
		t.Fatalf("lost executors %d and %d, want the crash in both jobs", reps[0].LostExecutors, reps[1].LostExecutors)
	}
	first, last := reps[0], reps[1]
	if end := func(r *JobReport) time.Duration { return r.SubmittedAt + r.Runtime }; end(first) > end(last) {
		first, last = last, first
	}
	for j, rep := range reps {
		if len(rep.Decisions) != len(e.Executors()) || len(rep.ThreadLogs) != len(e.Executors()) {
			t.Fatalf("job %d: %d decision and %d thread-log rows for %d executors",
				j, len(rep.Decisions), len(rep.ThreadLogs), len(e.Executors()))
		}
		for i, ds := range rep.Decisions {
			if len(ds) != cap(ds) || len(rep.ThreadLogs[i]) != cap(rep.ThreadLogs[i]) {
				t.Fatalf("job %d executor %d: rows of length %d and %d have capacity %d and %d",
					j, i, len(ds), len(rep.ThreadLogs[i]), cap(ds), cap(rep.ThreadLogs[i]))
			}
			for _, d := range ds {
				if d.At > rep.SubmittedAt+rep.Runtime {
					t.Fatalf("job %d executor %d: decision at %v after the job ended at %v", j, i, d.At, rep.SubmittedAt+rep.Runtime)
				}
			}
		}
	}
	for i, log := range first.ThreadLogs {
		if later := last.ThreadLogs[i]; len(later) < len(log) || !slices.Equal(later[:len(log)], log) {
			t.Fatalf("executor %d: the first job's thread log (%d rows) is not a prefix of the second's (%d rows)", i, len(log), len(later))
		}
	}
	if len(last.ThreadLogs[1]) == len(first.ThreadLogs[1]) {
		t.Fatal("executor 1 logged no pool change after the first job ended")
	}
	// The crashed executor retired both jobs' controllers mid-stage, and its
	// restarted incarnation decided again for each.
	for j, rep := range reps {
		post := 0
		for _, d := range rep.Decisions[1] {
			if d.At > restart {
				post++
			}
		}
		if post == 0 || post == len(rep.Decisions[1]) {
			t.Fatalf("job %d: executor 1 logged %d decisions, %d after its restart; want some on each side",
				j, len(rep.Decisions[1]), post)
		}
	}
}

// TestRunBudgets: budgets the run stays inside, however tight, change
// nothing, and one it meets ends the run with ErrBudget, naming the budget
// and the task set still pending.
func TestRunBudgets(t *testing.T) {
	run := func(horizon time.Duration, events uint64) (*JobReport, *Engine, error) {
		spec, in := pipelineJob("alpha", 16)
		opts := testOptions(4, core.DefaultDynamic())
		opts.Inputs = []Input{in}
		opts.MaxVirtualTime, opts.MaxEvents = horizon, events
		var e *Engine
		opts.OnSetup = func(eng *Engine) { e = eng }
		rep, err := Run(opts, spec)
		return rep, e, err
	}
	free, e, err := run(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The run ends when its housekeeping winds down, after the job.
	end, fired := e.Kernel().Now(), e.Kernel().FiredEvents()
	bounded, _, err := run(end+1, fired)
	if err != nil {
		t.Fatalf("a run inside its budgets failed: %v", err)
	}
	if !reflect.DeepEqual(bounded, free) {
		t.Fatal("a run inside its budgets reported differently")
	}
	for _, c := range []struct {
		horizon time.Duration
		events  uint64
		name    string
	}{{free.Runtime / 2, 0, "MaxVirtualTime"}, {0, fired / 2, "MaxEvents"}} {
		_, _, err := run(c.horizon, c.events)
		if !errors.Is(err, ErrBudget) || !strings.Contains(err.Error(), c.name) || !strings.Contains(err.Error(), "pending task sets: job 0 stage") {
			t.Fatalf("%s: Wait = %v, want ErrBudget naming it and the pending set", c.name, err)
		}
	}
	if _, err := NewEngine(Options{Cluster: testOptions(1, core.Default{}).Cluster, Policy: core.Default{}, MaxVirtualTime: -1}); err == nil {
		t.Fatal("a negative MaxVirtualTime was accepted")
	}
}

// TestCutOffJobHasNoReport stops the kernel after a short job ended and
// before a long one did. The driver builds each report in place as the job
// runs, so the long job's half-filled report must not escape its handle,
// while the short job's is whole.
func TestCutOffJobHasNoReport(t *testing.T) {
	opts := testOptions(2, core.Default{})
	opts.OnSetup = func(e *Engine) { e.Kernel().At(time.Minute, e.Kernel().Stop) }
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	twoStages := func(name string, seconds float64) *job.JobSpec {
		return &job.JobSpec{Name: name, Stages: []*job.StageSpec{
			{ID: 0, Name: "first", NumTasks: 4, Work: opsThen(nil, computeOp(seconds))},
			{ID: 1, Name: "second", NumTasks: 4, DependsOn: []int{0}, Work: opsThen(nil, computeOp(seconds))},
		}}
	}
	short, err := e.Submit(twoStages("short", 1))
	if err != nil {
		t.Fatal(err)
	}
	long, err := e.Submit(twoStages("long", 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err == nil || err.Error() != "engine: jobs did not complete" {
		t.Fatalf("Wait = %v, want the jobs-did-not-complete error", err)
	}
	rep, err := short.Report()
	if err != nil {
		t.Fatalf("short job: %v", err)
	}
	if rep.Runtime <= 0 {
		t.Errorf("short job: Runtime %s, want > 0", rep.Runtime)
	}
	for _, sr := range rep.Stages {
		if sr.End <= 0 {
			t.Errorf("short job: stage %d has no End", sr.ID)
		}
	}
	if rep, err := long.Report(); err == nil || rep != nil {
		t.Fatalf("long job: report %v, error %v; want no report and an error", rep, err)
	}
}
