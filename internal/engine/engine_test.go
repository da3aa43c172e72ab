package engine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sae/internal/cluster"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine/job"
)

func testOptions(nodes int, policy job.Policy) Options {
	cfg := cluster.DAS5(nodes)
	cfg.Variability = device.Uniform()
	return Options{
		Cluster:   cfg,
		BlockSize: 64 * device.MiB,
		Policy:    policy,
	}
}

// opsThen is the custom Work of a test stage: every attempt performs ops in
// order, then ends in what end returns for it (a nil end: in success).
func opsThen(end func(tc job.TaskContext) error, ops ...job.Op) func(int) job.Ops {
	return func(int) job.Ops { return &scriptedOps{ops: ops, end: end} }
}

type scriptedOps struct {
	ops []job.Op
	end func(job.TaskContext) error
}

func (s *scriptedOps) Next(tc job.TaskContext, _ int64) job.Op {
	if len(s.ops) > 0 {
		op := s.ops[0]
		s.ops = s.ops[1:]
		return op
	}
	if s.end != nil {
		return job.Op{Err: s.end(tc)}
	}
	return job.Op{}
}

func computeOp(seconds float64) job.Op { return job.Op{Kind: job.OpCompute, Seconds: seconds} }

func readJob(name string, size int64) *job.JobSpec {
	return &job.JobSpec{
		Name: name,
		Stages: []*job.StageSpec{{
			ID:                0,
			Name:              "read",
			InputFile:         "in",
			CPUSecondsPerTask: 0.1,
		}},
	}
}

func TestRunSingleReadStage(t *testing.T) {
	opts := testOptions(4, core.Default{})
	size := int64(16 * 64 * device.MiB)
	opts.Inputs = []Input{{Name: "in", Size: size}}
	rep, err := Run(opts, readJob("read", size))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runtime <= 0 {
		t.Fatal("zero runtime")
	}
	if len(rep.Stages) != 1 {
		t.Fatalf("stages = %d", len(rep.Stages))
	}
	st := rep.Stages[0]
	if got := st.DiskReadBytes; got != size {
		t.Fatalf("disk read %d, want %d", got, size)
	}
	var tasks, local int
	for _, e := range st.Execs {
		tasks += e.Tasks
		local += e.LocalTasks
	}
	if tasks != 16 {
		t.Fatalf("tasks = %d, want 16 (one per block)", tasks)
	}
	if local != tasks {
		t.Fatalf("with full replication all tasks must be local: %d/%d", local, tasks)
	}
	if st.ThreadsTotal != 4*32 {
		t.Fatalf("default threads total = %d, want 128", st.ThreadsTotal)
	}
}

// TestSubmitLeavesSpecAlone: the task count the engine resolves from a
// stage's input layout stays out of the caller's spec, so the same spec run
// again over a larger input gets one task per block of that input.
func TestSubmitLeavesSpecAlone(t *testing.T) {
	spec := readJob("read", 0)
	for _, blocks := range []int{4, 16} {
		opts := testOptions(4, core.Default{})
		opts.Inputs = []Input{{Name: "in", Size: int64(blocks) * 64 * device.MiB}}
		rep, err := Run(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		tasks := 0
		for _, e := range rep.Stages[0].Execs {
			tasks += e.Tasks
		}
		if tasks != blocks || spec.Stages[0].NumTasks != 0 {
			t.Fatalf("over %d blocks: %d tasks, and the spec's stage holds %d; want %[1]d and 0",
				blocks, tasks, spec.Stages[0].NumTasks)
		}
	}
}

func TestRunShufflePipeline(t *testing.T) {
	opts := testOptions(4, core.Default{})
	in := int64(8 * 64 * device.MiB)
	shuffleBytes := int64(6 * 64 * device.MiB)
	out := int64(4 * 64 * device.MiB)
	opts.Inputs = []Input{{Name: "in", Size: in}}
	spec := &job.JobSpec{
		Name: "two-stage",
		Stages: []*job.StageSpec{
			{
				ID: 0, Name: "map", InputFile: "in",
				CPUSecondsPerTask: 0.1,
				ShuffleWriteBytes: shuffleBytes,
			},
			{
				ID: 1, Name: "reduce", NumTasks: 16,
				ShuffleFrom:       []int{0},
				CPUSecondsPerTask: 0.1,
				OutputFile:        "out", OutputBytes: out,
			},
		},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("stages = %d", len(rep.Stages))
	}
	// Stage 1 reads exactly the shuffle bytes stage 0 wrote.
	if got := rep.Stages[1].DiskReadBytes; got != shuffleBytes {
		t.Fatalf("reduce disk read = %d, want %d", got, shuffleBytes)
	}
	// Totals: reads = input + shuffle, writes = shuffle + output.
	if got := rep.DiskReadBytes; got != in+shuffleBytes {
		t.Fatalf("total read = %d, want %d", got, in+shuffleBytes)
	}
	if got := rep.DiskWriteBytes; got != shuffleBytes+out {
		t.Fatalf("total write = %d, want %d", got, shuffleBytes+out)
	}
	// Output file materialized with the right size.
	k := rep.Stages[1]
	if !k.IOMarked {
		t.Fatal("output stage should be IO-marked")
	}
	if rep.Stages[1].End <= rep.Stages[0].End {
		t.Fatal("stage 1 must run after stage 0")
	}
}

func TestRunOutputFileCreated(t *testing.T) {
	opts := testOptions(2, core.Default{})
	opts.Inputs = []Input{{Name: "in", Size: 4 * 64 * device.MiB}}
	spec := &job.JobSpec{
		Name: "write",
		Stages: []*job.StageSpec{{
			ID: 0, Name: "w", InputFile: "in",
			OutputFile: "out", OutputBytes: 100 * device.MiB,
		}},
	}
	var e2 *Engine
	opts.OnSetup = func(e *Engine) { e2 = e }
	if _, err := Run(opts, spec); err != nil {
		t.Fatal(err)
	}
	f, err := e2.FS().Open("out")
	if err != nil {
		t.Fatal(err)
	}
	gotSize := f.Size
	if gotSize != 100*device.MiB {
		t.Fatalf("output size = %d, want %d", gotSize, 100*device.MiB)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() time.Duration {
		opts := testOptions(4, core.DefaultDynamic())
		opts.Inputs = []Input{{Name: "in", Size: 32 * 64 * device.MiB}}
		spec := &job.JobSpec{
			Name: "det",
			Stages: []*job.StageSpec{
				{ID: 0, Name: "map", InputFile: "in", CPUSecondsPerTask: 0.2, ShuffleWriteBytes: device.GiB},
				{ID: 1, Name: "red", NumTasks: 32, ShuffleFrom: []int{0}, CPUSecondsPerTask: 0.2, OutputFile: "o", OutputBytes: device.GiB},
			},
		}
		rep, err := Run(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Runtime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic runtimes: %v vs %v", a, b)
	}
}

func TestStaticPolicyLimitsIOStages(t *testing.T) {
	opts := testOptions(2, core.Static{IOThreads: 4})
	opts.Inputs = []Input{{Name: "in", Size: 32 * 64 * device.MiB}}
	spec := &job.JobSpec{
		Name: "static",
		Stages: []*job.StageSpec{
			{ID: 0, Name: "read", InputFile: "in", ShuffleWriteBytes: 512 * device.MiB},
			{ID: 1, Name: "shuffle", NumTasks: 16, ShuffleFrom: []int{0}, CPUSecondsPerTask: 0.1, ShuffleWriteBytes: 256 * device.MiB},
			{ID: 2, Name: "write", NumTasks: 16, ShuffleFrom: []int{1}, OutputFile: "out", OutputBytes: 512 * device.MiB},
		},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Stages[0].Execs {
		if e.InitialThreads != 4 || e.FinalThreads != 4 {
			t.Fatalf("I/O stage executor threads = %d/%d, want 4/4", e.InitialThreads, e.FinalThreads)
		}
	}
	for _, e := range rep.Stages[1].Execs {
		if e.FinalThreads != 32 {
			t.Fatalf("shuffle stage (unmarked) threads = %d, want 32 — L2!", e.FinalThreads)
		}
	}
	for _, e := range rep.Stages[2].Execs {
		if e.FinalThreads != 4 {
			t.Fatalf("write stage threads = %d, want 4", e.FinalThreads)
		}
	}
}

func TestDynamicPolicyAdaptsWithinRun(t *testing.T) {
	opts := testOptions(4, core.DefaultDynamic())
	opts.Inputs = []Input{{Name: "in", Size: 20 * device.GiB}}
	spec := &job.JobSpec{
		Name: "dyn",
		Stages: []*job.StageSpec{{
			ID: 0, Name: "read", InputFile: "in", CPUSecondsPerTask: 0.3,
		}},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decisions) != 4 {
		t.Fatalf("decision logs = %d", len(rep.Decisions))
	}
	for exec, ds := range rep.Decisions {
		if len(ds) == 0 {
			t.Fatalf("executor %d never adapted", exec)
		}
		if d := ds[0]; d.Verdict.Action != job.ActFirst || d.Threads != 4 {
			t.Fatalf("executor %d's first decision %v to %d threads, want cmin 2 doubled to 4", exec, d.Reason(), d.Threads)
		}
	}
	for _, e := range rep.Stages[0].Execs {
		if e.InitialThreads != 2 {
			t.Fatalf("executor started at %d threads, want cmin 2", e.InitialThreads)
		}
		if e.FinalThreads < 2 || e.FinalThreads > 32 {
			t.Fatalf("final threads %d out of range", e.FinalThreads)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	opts := testOptions(2, core.Default{})
	cases := []*job.JobSpec{
		{Name: "empty"},
		{Name: "no-input", Stages: []*job.StageSpec{{ID: 0, Name: "x"}}},
		{Name: "bad-ids", Stages: []*job.StageSpec{{ID: 1, Name: "x", NumTasks: 1}}},
		{Name: "fwd-shuffle", Stages: []*job.StageSpec{{ID: 0, Name: "x", NumTasks: 1, ShuffleFrom: []int{0}}}},
		{Name: "no-outfile", Stages: []*job.StageSpec{{ID: 0, Name: "x", NumTasks: 1, OutputBytes: 5}}},
	}
	for _, spec := range cases {
		if _, err := Run(opts, spec); err == nil {
			t.Errorf("spec %q validated but should not", spec.Name)
		}
	}
}

func TestMissingPolicy(t *testing.T) {
	opts := testOptions(2, nil)
	if _, err := Run(opts, readJob("x", 1)); err == nil {
		t.Fatal("nil policy accepted")
	}
}

// TestClusterWithoutNodes: NewEngine answers a node count a flag can carry
// with ErrNoNodes, not with cluster.New's programmer-error panic.
func TestClusterWithoutNodes(t *testing.T) {
	for _, nodes := range []int{0, -1} {
		opts := testOptions(2, core.Default{})
		opts.Cluster.Nodes = nodes
		if _, err := NewEngine(opts); !errors.Is(err, ErrNoNodes) {
			t.Errorf("%d nodes: err = %v, want ErrNoNodes", nodes, err)
		}
	}
}

// TestReplicationOption: a negative factor is an error; zero and anything above
// the cluster size put every block on every node.
func TestReplicationOption(t *testing.T) {
	for _, tc := range []struct{ replication, replicas int }{{-1, 0}, {0, 4}, {3, 3}, {4, 4}, {9, 4}} {
		opts := testOptions(4, core.Default{})
		opts.Replication = tc.replication
		opts.Inputs = []Input{{Name: "in", Size: 8 * opts.BlockSize}}
		e, err := NewEngine(opts)
		if tc.replicas == 0 {
			if err == nil || !strings.Contains(err.Error(), "Replication") {
				t.Errorf("replication %d: err = %v, want one that names Options.Replication", tc.replication, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("replication %d: %v", tc.replication, err)
		}
		f, _ := e.FS().Open("in")
		if got := len(f.Blocks[5].Replicas); got != tc.replicas {
			t.Errorf("replication %d: a block has %d replicas, want %d", tc.replication, got, tc.replicas)
		}
	}
}

func TestMissingInputFile(t *testing.T) {
	opts := testOptions(2, core.Default{})
	spec := readJob("missing", 1)
	_, err := Run(opts, spec)
	if err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestWorkError(t *testing.T) {
	opts := testOptions(2, core.Default{})
	boom := errors.New("boom")
	spec := &job.JobSpec{
		Name: "err",
		Stages: []*job.StageSpec{{
			ID: 0, Name: "x", NumTasks: 4,
			Work: opsThen(func(tc job.TaskContext) error {
				if tc.Index() == 2 {
					return boom
				}
				return nil
			}, computeOp(0.1)),
		}},
	}
	_, err := Run(opts, spec)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestCustomWorkClosure(t *testing.T) {
	opts := testOptions(2, core.Default{})
	opts.Inputs = []Input{{Name: "in", Size: 4 * 64 * device.MiB}}
	var mu int
	read16 := job.Op{Kind: job.OpReadInput, Bytes: 16 * device.MiB}
	spec := &job.JobSpec{
		Name: "closure",
		Stages: []*job.StageSpec{{
			ID: 0, Name: "custom", InputFile: "in",
			// One 64 MiB block per task: four chunks, and the read that
			// finds the input exhausted.
			Work: opsThen(func(job.TaskContext) error { mu++; return nil },
				read16, computeOp(0.05), read16, computeOp(0.05), read16, computeOp(0.05), read16, computeOp(0.05), read16),
		}},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if mu != 4 {
		t.Fatalf("closure ran %d times, want 4", mu)
	}
	if rep.DiskReadBytes != 4*64*device.MiB {
		t.Fatalf("closure read %d bytes", rep.DiskReadBytes)
	}
}

func TestMoreThreadsHurtOnHDDStreaming(t *testing.T) {
	// The paper's core observation: for a streaming read stage on HDDs,
	// running with all 32 threads is slower than a small thread count.
	run := func(threads int) time.Duration {
		opts := testOptions(4, core.BestFit{Threads: map[int]int{0: threads}})
		opts.Inputs = []Input{{Name: "in", Size: 30 * device.GiB}}
		rep, err := Run(opts, &job.JobSpec{
			Name: "stream",
			Stages: []*job.StageSpec{{
				ID: 0, Name: "read", InputFile: "in", CPUSecondsPerTask: 0.2,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Runtime
	}
	t4, t32 := run(4), run(32)
	if t4 >= t32 {
		t.Fatalf("4 threads (%v) should beat 32 threads (%v) on HDD streaming", t4, t32)
	}
}

func TestZeroTaskShuffleSourceRejected(t *testing.T) {
	opts := testOptions(2, core.Default{})
	spec := &job.JobSpec{
		Name: "zero-shuffle",
		Stages: []*job.StageSpec{
			{ID: 0, Name: "a", NumTasks: 2, CPUSecondsPerTask: 0.1},
			{ID: 1, Name: "b", NumTasks: 2, ShuffleFrom: []int{0}},
		},
	}
	if _, err := Run(opts, spec); err == nil {
		t.Fatal("shuffle from stage with no shuffle output accepted")
	}
}

func TestTaskRetrySucceeds(t *testing.T) {
	opts := testOptions(2, core.Default{})
	failures := map[int]int{}
	spec := &job.JobSpec{
		Name: "flaky",
		Stages: []*job.StageSpec{{
			ID: 0, Name: "x", NumTasks: 8,
			Work: opsThen(func(tc job.TaskContext) error {
				// Every odd task fails on its first two attempts.
				if task := tc.Index(); task%2 == 1 && failures[task] < 2 {
					failures[task]++
					return errors.New("transient")
				}
				return nil
			}, computeOp(0.1)),
		}},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Stages[0].Retries; got != 8 {
		t.Fatalf("retries = %d, want 8 (4 odd tasks × 2 failures)", got)
	}
	var tasks int
	for _, e := range rep.Stages[0].Execs {
		tasks += e.Tasks
	}
	if tasks != 8 {
		t.Fatalf("successful tasks = %d, want 8", tasks)
	}
}

func TestTaskRetryExhausted(t *testing.T) {
	opts := testOptions(2, core.Default{})
	opts.Config = Conf(opts.Config, "task.maxFailures=3")
	spec := &job.JobSpec{
		Name: "doomed",
		Stages: []*job.StageSpec{{
			ID: 0, Name: "x", NumTasks: 4,
			Work: opsThen(func(tc job.TaskContext) error {
				if tc.Index() == 2 {
					return errors.New("permanent")
				}
				return nil
			}, computeOp(0.01)),
		}},
	}
	_, err := Run(opts, spec)
	if err == nil {
		t.Fatal("permanently failing task did not abort the job")
	}
	if !strings.Contains(err.Error(), "failed 3 times") {
		t.Fatalf("error should mention the attempt count: %v", err)
	}
}

func TestFailedAttemptsDoNotFeedController(t *testing.T) {
	// A controller that panics on any TaskDone with zero duration would
	// catch accounting of failed attempts; instead verify the dynamic
	// controller's decision count only reflects successes.
	opts := testOptions(2, core.DefaultDynamic())
	tries := 0
	spec := &job.JobSpec{
		Name: "flaky-dyn",
		Stages: []*job.StageSpec{{
			ID: 0, Name: "x", NumTasks: 40,
			Work: opsThen(func(tc job.TaskContext) error {
				if tc.Index() == 0 && tries < 1 {
					tries++
					return errors.New("once")
				}
				return nil
			}, computeOp(0.05), job.Op{Kind: job.OpWriteShuffle, Bytes: 1 << 20}),
			ShuffleWriteBytes: 40 << 20,
		}},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages[0].Retries != 1 {
		t.Fatalf("retries = %d, want 1", rep.Stages[0].Retries)
	}
}

func TestSpeculationCutsStragglerTail(t *testing.T) {
	// One node's disk is 4x slower; speculation re-runs its stragglers
	// elsewhere and should shorten the stage.
	run := func(speculate bool) (*JobReport, error) {
		cfg := cluster.DAS5(4)
		cfg.Variability = device.VariabilityModel{} // uniform...
		opts := Options{
			Cluster:   cfg,
			BlockSize: 32 * device.MiB,
			Policy:    core.Default{},
			Inputs:    []Input{{Name: "in", Size: 16 * device.GiB}},
		}
		opts.Config = Conf(opts.Config, fmt.Sprintf("speculation=%t", speculate))
		// ...except node 3, made a hard straggler via interference on
		// its disk from the start.
		opts.OnSetup = func(e *Engine) {
			e.InjectDiskInterference(3, 0, 96, 0)
		}
		spec := &job.JobSpec{
			Name: "straggle",
			Stages: []*job.StageSpec{{
				ID: 0, Name: "read", InputFile: "in", CPUSecondsPerTask: 0.05,
			}},
		}
		return Run(opts, spec)
	}
	plain, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Stages[0].Speculative == 0 {
		t.Fatal("no speculative copies launched despite a hard straggler")
	}
	if spec.Runtime >= plain.Runtime {
		t.Fatalf("speculation (%v) should beat no-speculation (%v)", spec.Runtime, plain.Runtime)
	}
	// All tasks completed exactly once in the report.
	var tasks int
	for _, e := range spec.Stages[0].Execs {
		tasks += e.Tasks
	}
	if tasks != 512 {
		t.Fatalf("winning completions = %d, want one per task (512)", tasks)
	}
}

func TestSpeculationOffByDefault(t *testing.T) {
	opts := testOptions(2, core.Default{})
	opts.Inputs = []Input{{Name: "in", Size: device.GiB}}
	rep, err := Run(opts, readJob("x", device.GiB))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages[0].Speculative != 0 {
		t.Fatalf("speculative = %d without opting in", rep.Stages[0].Speculative)
	}
}

func TestTraceLog(t *testing.T) {
	var buf bytes.Buffer
	opts := testOptions(2, core.DefaultDynamic())
	opts.Trace = &buf
	opts.Inputs = []Input{{Name: "in", Size: 2 * device.GiB}}
	spec := &job.JobSpec{
		Name: "traced",
		Stages: []*job.StageSpec{
			{ID: 0, Name: "map", InputFile: "in", CPUSecondsPerTask: 0.1, ShuffleWriteBytes: 256 * device.MiB},
			{ID: 1, Name: "red", NumTasks: 16, ShuffleFrom: []int{0}, CPUSecondsPerTask: 0.1},
		},
	}
	if _, err := Run(opts, spec); err != nil {
		t.Fatal(err)
	}
	events := TraceEvents(t, &buf)
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Type]++
	}
	if counts[TraceStageStart] != 2 || counts[TraceStageEnd] != 2 {
		t.Fatalf("stage events = %d/%d, want 2/2", counts[TraceStageStart], counts[TraceStageEnd])
	}
	wantTasks := 2*device.GiB/(64*device.MiB) + 16
	if counts[TraceTaskLaunch] != int(wantTasks) || counts[TraceTaskEnd] != int(wantTasks) {
		t.Fatalf("task events = %d/%d, want %d each", counts[TraceTaskLaunch], counts[TraceTaskEnd], wantTasks)
	}
	if counts[TraceResize] == 0 {
		t.Fatal("dynamic policy produced no resize events")
	}
	// Monotonic timestamps.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("trace not time-ordered at %d", i)
		}
	}
	// Stage 0 starts before stage 1.
	firstOf := map[string]int{}
	for i, ev := range events {
		key := fmt.Sprintf("%s-%d", ev.Type, ev.Stage)
		if _, ok := firstOf[key]; !ok {
			firstOf[key] = i
		}
	}
	if firstOf["stage_start-1"] < firstOf["stage_end-0"] {
		t.Fatal("stage 1 started before stage 0 ended")
	}
}

func TestReplicationOneMixesLocality(t *testing.T) {
	opts := testOptions(4, core.Default{})
	opts.Replication = 1
	opts.Inputs = []Input{{Name: "in", Size: 32 * 64 * device.MiB}}
	rep, err := Run(opts, readJob("remote", 32*64*device.MiB))
	if err != nil {
		t.Fatal(err)
	}
	var tasks, local int
	for _, e := range rep.Stages[0].Execs {
		tasks += e.Tasks
		local += e.LocalTasks
	}
	if local == 0 {
		t.Fatal("no local tasks despite locality-preferring assignment")
	}
	if local == tasks {
		t.Fatalf("all %d tasks local with replication=1 across 4 nodes — remote path untested", tasks)
	}
	if rep.NetBytes == 0 {
		t.Fatal("remote reads moved no network bytes")
	}
}

func TestEmptyInputFile(t *testing.T) {
	opts := testOptions(2, core.Default{})
	opts.Inputs = []Input{{Name: "in", Size: 0}}
	rep, err := Run(opts, readJob("empty", 0))
	if err != nil {
		t.Fatal(err)
	}
	var tasks int
	for _, e := range rep.Stages[0].Execs {
		tasks += e.Tasks
	}
	if tasks != 1 {
		t.Fatalf("empty file ran %d tasks, want the single placeholder task", tasks)
	}
}

// TestPoolShrinkQueuesLocally pins §5.3's integrity behaviour: tasks already
// assigned when the pool shrinks are queued by the executor and run as slots
// free, never dropped.
func TestPoolShrinkQueuesLocally(t *testing.T) {
	// A policy that slams the pool from 8 to 1 after the first completion.
	shrink := &shrinkPolicy{}
	opts := testOptions(1, shrink)
	spec := &job.JobSpec{
		Name: "shrink",
		Stages: []*job.StageSpec{{
			ID: 0, Name: "x", NumTasks: 24,
			Work: opsThen(nil, computeOp(1)),
		}},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	var tasks int
	for _, e := range rep.Stages[0].Execs {
		tasks += e.Tasks
	}
	if tasks != 24 {
		t.Fatalf("tasks = %d, want all 24 despite the shrink", tasks)
	}
	if rep.Stages[0].Execs[0].FinalThreads != 1 {
		t.Fatalf("final threads = %d, want 1", rep.Stages[0].Execs[0].FinalThreads)
	}
}

// shrinkPolicy starts at 8 threads and drops to 1 after the first task.
type shrinkPolicy struct{}

func (*shrinkPolicy) Name() string { return "shrink" }
func (*shrinkPolicy) InitialThreads(job.ExecutorInfo, job.StageMeta) int {
	return 8
}
func (*shrinkPolicy) NewController(job.ExecutorInfo) job.Controller {
	return &shrinkController{threads: 8}
}

type shrinkController struct {
	threads int
	fired   bool
}

func (c *shrinkController) StageStart(job.StageMeta) int { return c.threads }
func (c *shrinkController) TaskDone(job.TaskMetrics) (int, bool) {
	if !c.fired {
		c.fired = true
		c.threads = 1
		return 1, true
	}
	return c.threads, false
}
func (c *shrinkController) Decisions() []job.Decision { return nil }

func TestReportRendering(t *testing.T) {
	opts := testOptions(2, core.Static{IOThreads: 4})
	opts.Inputs = []Input{{Name: "in", Size: 4 * 64 * device.MiB}}
	rep, err := Run(opts, readJob("render", 4*64*device.MiB))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"render", "static-4", "stage 0", "8/64"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
	if got := rep.Stages[0].ThreadsLabel(); got != "8/64" {
		t.Errorf("ThreadsLabel = %q, want 8/64 (4 threads × 2 executors of 32)", got)
	}
	if rep.TotalIOBytes() != rep.DiskReadBytes+rep.DiskWriteBytes {
		t.Error("TotalIOBytes mismatch")
	}
	ft := rep.FinalThreads()
	if len(ft) != 1 || len(ft[0]) != 2 || ft[0][0] != 4 {
		t.Errorf("FinalThreads = %v", ft)
	}
}

// TestReadOutputBack: a stage can take as input the file an earlier stage of
// its job wrote. Stage 1 opens stage 0's output once stage 0 has finished —
// the file system lays its blocks out then, per writing node — reads every
// byte of it, and a second run is the same run, report and trace.
func TestReadOutputBack(t *testing.T) {
	const out = 640 * device.MiB
	run := func() (*JobReport, string) {
		t.Helper()
		var trace bytes.Buffer
		opts := testOptions(4, core.Static{IOThreads: 4})
		opts.Trace = &trace
		var eng *Engine
		opts.OnSetup = func(e *Engine) { eng = e }
		spec := &job.JobSpec{Name: "readback", Stages: []*job.StageSpec{
			{ID: 0, Name: "write", NumTasks: 12, CPUSecondsPerTask: 0.1, OutputFile: "mid", OutputBytes: out},
			{ID: 1, Name: "read", NumTasks: 8, DependsOn: []int{0}, InputFile: "mid", CPUSecondsPerTask: 0.1},
		}}
		rep, err := Run(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		f, err := eng.FS().Open("mid")
		if err != nil || f.Size != out || len(f.Blocks) < 8 {
			t.Fatalf("the output file: %v, size %d in %d blocks; want %d bytes in at least 8", err, f.Size, len(f.Blocks), int64(out))
		}
		return rep, trace.String()
	}
	rep, trace := run()
	moved := func(st StageReport) (bytes int64, tasks int) {
		for _, ex := range st.Execs {
			bytes, tasks = bytes+ex.Bytes, tasks+ex.Tasks
		}
		return bytes, tasks
	}
	wrote, _ := moved(rep.Stages[0])
	read, tasks := moved(rep.Stages[1])
	if wrote != out || read != wrote || tasks != 8 {
		t.Fatalf("stage 0 wrote %d bytes, stage 1's %d tasks read %d; want %d and 8", wrote, tasks, read, int64(out))
	}
	if got := rep.Stages[1].DiskReadBytes; got != out {
		t.Fatalf("stage 1 read %d bytes from disk, want %d", got, int64(out))
	}
	if rep.Stages[1].Start < rep.Stages[0].End {
		t.Fatalf("stage 1 started at %v, before stage 0 ended at %v", rep.Stages[1].Start, rep.Stages[0].End)
	}
	rep2, trace2 := run()
	if a, b := fmt.Sprintf("%+v", *rep), fmt.Sprintf("%+v", *rep2); a != b || trace != trace2 {
		t.Fatalf("two runs differ:\n%s\n%s", a, b)
	}
}
