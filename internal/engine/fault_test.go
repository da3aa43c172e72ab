package engine

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine/job"
)

// twoStageJob is a map+reduce pipeline sized so both stages run long enough
// to crash into.
func twoStageJob() (*job.JobSpec, []Input) {
	in := int64(32 * 64 * device.MiB)
	spec := &job.JobSpec{
		Name: "faulty",
		Stages: []*job.StageSpec{
			{ID: 0, Name: "map", InputFile: "in", CPUSecondsPerTask: 0.2, ShuffleWriteBytes: device.GiB},
			{ID: 1, Name: "reduce", NumTasks: 32, ShuffleFrom: []int{0}, CPUSecondsPerTask: 0.2,
				OutputFile: "out", OutputBytes: device.GiB},
		},
	}
	return spec, []Input{{Name: "in", Size: in}}
}

// calibrate runs the job quietly and returns its stage windows.
func calibrate(t *testing.T, policy job.Policy) *JobReport {
	t.Helper()
	spec, inputs := twoStageJob()
	opts := testOptions(4, policy)
	opts.Inputs = inputs
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFaultOnMissingExecutorRejected: a plan that crashes, slows or partitions
// an executor the cluster does not have is an out-of-range error from
// NewEngine, not a run without that fault.
func TestFaultOnMissingExecutorRejected(t *testing.T) {
	for _, plan := range []*chaos.Plan{
		chaos.CrashAt(4, time.Second),
		chaos.SlowAt(7, time.Second, 2),
		{Name: "both", Crashes: []chaos.Crash{{Exec: 1}}, Partitions: []chaos.Partition{{Exec: 4, Duration: time.Second}}},
	} {
		opts := testOptions(4, core.Default{})
		opts.Faults = plan
		if _, err := NewEngine(opts); !errors.Is(err, chaos.ErrOutOfRange) {
			t.Errorf("plan %s on 4 nodes: %v, want an out-of-range error", plan, err)
		}
	}
}

func TestCrashRecoveryDuringMapStage(t *testing.T) {
	// Static{4} caps each executor at 4 slots, so the 32-task waves spread
	// over all four executors and the crash victim has work in flight.
	quiet := calibrate(t, core.Static{IOThreads: 4})
	crashAt := quiet.Stages[0].End * 2 / 5

	spec, inputs := twoStageJob()
	opts := testOptions(4, core.Static{IOThreads: 4})
	opts.Inputs = inputs
	opts.Faults = chaos.CrashAt(1, crashAt)
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatalf("job did not recover from executor crash: %v", err)
	}
	if rep.LostExecutors != 1 {
		t.Fatalf("LostExecutors = %d, want 1", rep.LostExecutors)
	}
	if rep.Stages[0].Requeued == 0 {
		t.Fatal("no tasks requeued despite a mid-stage crash")
	}
	if rep.Runtime <= quiet.Runtime {
		t.Fatalf("crashy run (%v) not slower than quiet run (%v)", rep.Runtime, quiet.Runtime)
	}
	// All 32 map and 32 reduce tasks still completed exactly once on the
	// surviving executors.
	for _, st := range rep.Stages {
		var tasks int
		for _, e := range st.Execs {
			tasks += e.Tasks
		}
		if tasks != 32 {
			t.Fatalf("stage %d completed tasks = %d, want 32", st.ID, tasks)
		}
		for i, e := range st.Execs {
			if i == 1 && st.ID == 1 && e.Tasks != 0 {
				t.Fatalf("dead executor completed %d reduce tasks", e.Tasks)
			}
		}
	}
}

func TestCrashDuringReduceResubmitsMapStage(t *testing.T) {
	quiet := calibrate(t, core.Static{IOThreads: 4})
	red := quiet.Stages[1]
	crashAt := red.Start + (red.End-red.Start)*2/5

	spec, inputs := twoStageJob()
	opts := testOptions(4, core.Static{IOThreads: 4})
	opts.Inputs = inputs
	opts.Faults = chaos.CrashAt(2, crashAt)
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatalf("job did not recover from reduce-phase crash: %v", err)
	}
	if rep.LostExecutors != 1 {
		t.Fatalf("LostExecutors = %d, want 1", rep.LostExecutors)
	}
	// The crash took node 2's map outputs with it: the reduce stage must
	// have resubmitted the parent map tasks (lineage recovery) and
	// re-registered their shuffle output.
	if rep.ResubmittedStages < 1 {
		t.Fatalf("ResubmittedStages = %d, want >= 1", rep.ResubmittedStages)
	}
	if rep.RecoveredBytes <= 0 {
		t.Fatal("no shuffle bytes recovered despite lost map outputs")
	}
}

func TestRestartReclimbsFromCmin(t *testing.T) {
	quiet := calibrate(t, core.DefaultDynamic())
	crashAt := quiet.Runtime * 2 / 5
	restartAfter := quiet.Runtime / 5

	spec, inputs := twoStageJob()
	opts := testOptions(4, core.DefaultDynamic())
	opts.Inputs = inputs
	opts.Faults = chaos.CrashRestart(1, crashAt, restartAfter)
	var eng *Engine
	opts.OnSetup = func(e *Engine) { eng = e }
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatalf("job did not survive crash+restart: %v", err)
	}
	ex := eng.Executors()[1]
	if ex.Restarts() != 1 {
		t.Fatalf("Restarts() = %d, want 1", ex.Restarts())
	}
	if !ex.Alive() {
		t.Fatal("restarted executor not alive at job end")
	}
	// The restarted incarnation's controller climbs afresh from cmin: its
	// first decision doubles the pool from 2 to 4, and the report carries it
	// beside the crashed incarnation's.
	var first *job.Decision
	for i, d := range rep.Decisions[1] {
		if d.At > crashAt+restartAfter && (first == nil || d.At < first.At) {
			first = &rep.Decisions[1][i]
		}
	}
	if first == nil {
		t.Fatal("restarted controller logged no decisions")
	}
	if first.Verdict.Action != job.ActFirst || first.Threads != 4 {
		t.Fatalf("first post-restart decision %v to %d threads, want cmin 2 doubled to 4", first.Reason(), first.Threads)
	}
}

// TestRestartDrainsBehindZombies: executor 1 crashes with a full pool of long
// tasks and restarts before they end. The restart's join gets the old
// incarnation declared lost, and the driver relaunches onto the new one
// launches that queue behind the zombies still holding every slot. When the
// zombies end, those launches must start; they were stranded, and the
// heartbeats kept the clock running forever. The kernel stops at 10 virtual
// minutes, so a strand fails the run instead of hanging the test.
func TestRestartDrainsBehindZombies(t *testing.T) {
	opts := testOptions(2, core.Default{})
	opts.Faults = chaos.CrashRestart(1, 2*time.Second, time.Second)
	opts.OnSetup = func(e *Engine) { e.Kernel().At(10*time.Minute, e.Kernel().Stop) }
	spec := &job.JobSpec{
		Name:   "zombies",
		Stages: []*job.StageSpec{{ID: 0, Name: "x", NumTasks: 128, Work: opsThen(nil, computeOp(10))}},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatalf("launches queued behind zombies never ran: %v", err)
	}
	if rep.LostExecutors != 1 {
		t.Fatalf("LostExecutors = %d, want 1", rep.LostExecutors)
	}
	var tasks int
	for _, e := range rep.Stages[0].Execs {
		tasks += e.Tasks
	}
	if tasks != 128 {
		t.Fatalf("completed tasks = %d, want 128", tasks)
	}
}

func TestTransientFaultsRetryNotAbort(t *testing.T) {
	spec, inputs := twoStageJob()
	opts := testOptions(4, core.Default{})
	opts.Inputs = inputs
	opts.Faults = &chaos.Plan{Name: "storm", Seed: 3, TaskFaultRate: 0.3, FetchFaultRate: 0.3}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatalf("transient faults aborted the job: %v", err)
	}
	var retries int
	for _, st := range rep.Stages {
		retries += st.Retries
	}
	if retries == 0 {
		t.Fatal("30% fault rates produced no retries")
	}
	if rep.LostExecutors != 0 || rep.ResubmittedStages != 0 {
		t.Fatalf("transient faults must not look like executor loss: %d lost, %d resubmitted",
			rep.LostExecutors, rep.ResubmittedStages)
	}
}

func TestBlacklistAfterRepeatedFailures(t *testing.T) {
	var trace bytes.Buffer
	opts := testOptions(2, core.Default{})
	opts.Trace = &trace
	opts.Config = Conf(opts.Config, "task.maxFailures=10")
	spec := &job.JobSpec{
		Name: "badexec",
		Stages: []*job.StageSpec{{
			ID: 0, Name: "x", NumTasks: 16,
			Work: opsThen(func(tc job.TaskContext) error {
				if tc.Executor() == 0 {
					return errTestBroken
				}
				return nil
			}, computeOp(0.05)),
		}},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatalf("job did not route around the broken executor: %v", err)
	}
	events := TraceEvents(t, &trace)
	blacklisted := false
	for _, ev := range events {
		if ev.Type == TraceBlacklist && ev.Exec == 0 {
			blacklisted = true
		}
	}
	if !blacklisted {
		t.Fatal("executor 0 was never blacklisted despite failing every task")
	}
	if got := rep.Stages[0].Execs[0].Tasks; got != 0 {
		t.Fatalf("broken executor completed %d tasks", got)
	}
	var tasks int
	for _, e := range rep.Stages[0].Execs {
		tasks += e.Tasks
	}
	if tasks != 16 {
		t.Fatalf("completed tasks = %d, want 16", tasks)
	}
}

var errTestBroken = errBroken{}

type errBroken struct{}

func (errBroken) Error() string { return "broken executor" }

// TestFaultDeterminism is the regression test for scheduler determinism:
// the same job with speculation AND a chaos schedule (crash+restart plus
// transient fault rates) must produce byte-identical reports and traces on
// repeated runs.
func TestFaultDeterminism(t *testing.T) {
	quiet := calibrate(t, core.DefaultDynamic())
	run := func() (*JobReport, []byte) {
		var trace bytes.Buffer
		spec, inputs := twoStageJob()
		opts := testOptions(4, core.DefaultDynamic())
		opts.Inputs = inputs
		opts.Config = Conf(opts.Config, "speculation=true")
		opts.Trace = &trace
		opts.Faults = &chaos.Plan{
			Name: "mixed",
			Seed: 7,
			Crashes: []chaos.Crash{
				{Exec: 1, At: quiet.Runtime * 2 / 5, RestartAfter: quiet.Runtime / 5},
			},
			TaskFaultRate:  0.05,
			FetchFaultRate: 0.05,
		}
		rep, err := Run(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep, trace.Bytes()
	}
	repA, traceA := run()
	repB, traceB := run()
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("JobReports differ across identical runs:\nA: %+v\nB: %+v", repA, repB)
	}
	if !bytes.Equal(traceA, traceB) {
		t.Fatal("trace streams differ across identical runs")
	}
	if repA.LostExecutors != 1 {
		t.Fatalf("LostExecutors = %d, want 1", repA.LostExecutors)
	}
	_ = time.Duration(0)
}
