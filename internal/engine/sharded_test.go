package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine/job"
)

// runOn builds an engine, checks which path it chose, and runs spec on it to
// its report.
func runOn(t *testing.T, what string, opts Options, spec *job.JobSpec, windowed bool) *JobReport {
	t.Helper()
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if e.Windowed() != windowed {
		t.Fatalf("%s: Windowed() = %v, want %v", what, e.Windowed(), windowed)
	}
	h, err := e.Submit(spec)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := e.Wait(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	rep, err := h.Report()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return rep
}

// shardedRun executes one faulted, traced shuffle run with Options.Shards set
// and returns the full trace bytes plus the rendered report — every byte the
// determinism contract covers. The trace makes the options ineligible for
// sharding, so the run must land on one kernel whatever shards says.
func shardedRun(t *testing.T, shards int, plan *chaos.Plan) (string, string) {
	t.Helper()
	cfg := cluster.DAS5(8)
	cfg.Variability = device.DefaultVariability(7)
	var trace bytes.Buffer
	opts := Options{
		Cluster:   cfg,
		BlockSize: 64 * device.MiB,
		Policy:    core.Default{},
		Faults:    plan,
		Inputs:    []Input{{Name: "in", Size: 32 * 64 * device.MiB}},
		Trace:     &trace,
		Shards:    shards,
	}
	spec := &job.JobSpec{
		Name: "sharded-golden",
		Stages: []*job.StageSpec{
			{ID: 0, Name: "map", InputFile: "in", CPUSecondsPerTask: 0.2, ShuffleWriteBytes: 8 * 64 * device.MiB},
			{ID: 1, Name: "reduce", NumTasks: 16, ShuffleFrom: []int{0}, CPUSecondsPerTask: 0.3, DependsOn: []int{0}},
		},
	}
	rep := runOn(t, fmt.Sprintf("traced shards=%d", shards), opts, spec, false)
	return trace.String(), fmt.Sprintf("%+v", rep)
}

// TestShardsIneligibleRunsOnOneKernel: options that do not qualify for
// sharding — here a trace, a crash/restart and a shuffle — run on one kernel
// at any Shards value, silently: Windowed() is false and trace and report are
// byte-identical to Shards 1 and across repeated runs.
func TestShardsIneligibleRunsOnOneKernel(t *testing.T) {
	plan := &chaos.Plan{
		Name:  "sharded-mix",
		Seed:  42,
		Slows: []chaos.Slow{{Exec: 2, At: 5 * time.Second, Factor: 4}},
		Crashes: []chaos.Crash{
			{Exec: 5, At: 20 * time.Second, RestartAfter: 30 * time.Second},
		},
		Partitions:    []chaos.Partition{{Exec: 6, At: 10 * time.Second, Duration: 25 * time.Second}},
		TaskFaultRate: 0.02,
	}
	baseTrace, baseRep := shardedRun(t, 1, plan)
	if baseTrace == "" {
		t.Fatal("empty trace")
	}
	for _, shards := range []int{1, 2, 4} {
		for rep := 0; rep < 2; rep++ {
			tr, r := shardedRun(t, shards, plan)
			if tr != baseTrace {
				t.Fatalf("shards=%d rep=%d: trace differs from shards=1", shards, rep)
			}
			if r != baseRep {
				t.Fatalf("shards=%d rep=%d: report differs from shards=1", shards, rep)
			}
		}
	}
}

// windowedOptions builds a run that qualifies for concurrent (windowed)
// shard execution: map-only job, local DFS reads, slowdown + partition +
// transient-fault chaos, no observers.
func windowedOptions(nodes, shards int) (Options, *job.JobSpec) {
	cfg := cluster.DAS5(nodes)
	cfg.Variability = device.DefaultVariability(11)
	plan := &chaos.Plan{
		Name: "gray",
		Seed: 9,
		Slows: []chaos.Slow{
			{Exec: 1, At: 2 * time.Second, Factor: 3},
			{Exec: nodes - 1, At: 6 * time.Second, Factor: 2},
		},
		Partitions:    []chaos.Partition{{Exec: 2, At: 4 * time.Second, Duration: 30 * time.Second}},
		TaskFaultRate: 0.05,
	}
	opts := Options{
		Cluster:   cfg,
		BlockSize: 64 * device.MiB,
		Policy:    core.Default{},
		Faults:    plan,
		Inputs:    []Input{{Name: "in", Size: int64(nodes) * 8 * 64 * device.MiB}},
		Shards:    shards,
	}
	spec := &job.JobSpec{
		Name: "windowed-scan",
		Stages: []*job.StageSpec{
			{ID: 0, Name: "scan", InputFile: "in", CPUSecondsPerTask: 0.25},
		},
	}
	return opts, spec
}

// TestShardedWindowedEngages asserts the eligibility rule actually selects
// the concurrent path for qualifying options — and refuses it the moment an
// observer attaches, or the plan goes quiet or crashes an executor.
func TestShardedWindowedEngages(t *testing.T) {
	cases := []struct {
		name   string
		tweak  func(*Options)
		window bool
	}{
		{"qualifying", func(*Options) {}, true},
		{"traced", func(o *Options) { o.Trace = &bytes.Buffer{} }, false},
		{"replicated", func(o *Options) { o.Replication = 3 }, false},
		{"quiet", func(o *Options) { o.Faults = nil }, false},
		{"crash", func(o *Options) {
			o.Faults.Crashes = []chaos.Crash{{Exec: 5, At: 3 * time.Second, RestartAfter: 5 * time.Second}}
		}, false},
	}
	for _, c := range cases {
		opts, spec := windowedOptions(8, 4)
		c.tweak(&opts)
		runOn(t, c.name, opts, spec, c.window)
	}
}

// TestShardedSubmitRejects: the jobs half of the eligibility rule. A sharded
// engine refuses a stage that shuffles, writes output or carries Work, naming
// job and stage; the same job is fine on one kernel.
func TestShardedSubmitRejects(t *testing.T) {
	shuffling := &job.JobSpec{
		Name: "two-stage",
		Stages: []*job.StageSpec{
			{ID: 0, Name: "map", InputFile: "in", CPUSecondsPerTask: 0.2, ShuffleWriteBytes: 64 * device.MiB},
			{ID: 1, Name: "reduce", NumTasks: 4, ShuffleFrom: []int{0}, CPUSecondsPerTask: 0.3, DependsOn: []int{0}},
		},
	}
	opts, _ := windowedOptions(8, 4)
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Submit(shuffling)
	if err == nil {
		t.Fatal("sharded engine accepted a shuffling job")
	}
	for _, want := range []string{"two-stage", "stage 0", "map"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("rejection %q does not name %q", err, want)
		}
	}
	opts, _ = windowedOptions(8, 1)
	if _, err := Run(opts, shuffling); err != nil {
		t.Fatalf("one-kernel engine: %v", err)
	}
}

// TestShardedWindowedOracle is the differential oracle for the one concurrent
// path: the faulted all-replica scan at 16 nodes runs repeatedly at Shards 1,
// 2 and 4. Every repeat at one shard count must render the identical report,
// and across shard counts — one kernel against windowed shards — the runs
// must agree on every report quantity that does not depend on how
// same-instant cross-shard arrivals are ordered.
func TestShardedWindowedOracle(t *testing.T) {
	const nodes, blocks = 16, 16 * 8
	// What must agree. Completed tasks and bytes read are conservation laws:
	// every block is read exactly once by a winning task. Failed attempts
	// agree because the transient-fault roll is a pure hash of (seed, stage,
	// task, attempt index) — which executor runs the attempt, and when, does
	// not enter — and the attempt index of a task only advances on its own
	// failures as long as nothing is requeued or speculated, which the plan
	// guarantees (no crashes, partitions shorter than the loss timeout) and
	// the test asserts. Runtime, per-executor splits and task percentiles
	// depend on which free executor a tie hands a task to, so are left out.
	type invariants struct {
		tasks, retries, requeued, speculative, lost int
		bytes                                       int64
	}
	var want invariants
	for _, shards := range []int{1, 2, 4} {
		var first string
		for rep := 0; rep < 3; rep++ {
			opts, spec := windowedOptions(nodes, shards)
			r := runOn(t, fmt.Sprintf("shards=%d rep=%d", shards, rep), opts, spec, shards > 1)
			if s := fmt.Sprintf("%+v", r); rep == 0 {
				first = s
			} else if s != first {
				t.Fatalf("shards=%d rep=%d: report differs across repeats", shards, rep)
			}
			st := r.Stages[0]
			got := invariants{retries: st.Retries, requeued: st.Requeued, speculative: st.Speculative,
				lost: st.LostExecutors, bytes: st.Bytes()}
			for _, ex := range st.Execs {
				got.tasks += ex.Tasks
			}
			if got.tasks != blocks || got.bytes != blocks*64*device.MiB {
				t.Fatalf("shards=%d: %d tasks read %d bytes, want %d blocks of 64 MiB", shards, got.tasks, got.bytes, blocks)
			}
			if got.requeued != 0 || got.speculative != 0 || got.lost != 0 {
				t.Fatalf("shards=%d: %+v — the plan must not requeue, speculate or lose executors", shards, got)
			}
			if got.retries == 0 {
				t.Fatalf("shards=%d: no injected fault fired; the oracle compares nothing", shards)
			}
			if shards == 1 {
				want = got
			} else if got != want {
				t.Fatalf("shards=%d: %+v, one kernel had %+v", shards, got, want)
			}
		}
	}
}

// TestWindowedReportsMatchGolden pins the windowed path's bytes, which no
// other golden takes (every traced, audited or metered run is one kernel):
// the %+v reports of windowedOptions runs at 16 and 32 nodes, 2 and 4
// shards and seeds 1–3, each seed driving the node variability and the
// chaos dice, against testdata/windowed.golden (-update rewrites it).
func TestWindowedReportsMatchGolden(t *testing.T) {
	var got bytes.Buffer
	for _, nodes := range []int{16, 32} {
		for _, shards := range []int{2, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				opts, spec := windowedOptions(nodes, shards)
				opts.Cluster.Variability = device.DefaultVariability(seed)
				opts.Faults.Seed = seed
				what := fmt.Sprintf("nodes=%d shards=%d seed=%d", nodes, shards, seed)
				r := runOn(t, what, opts, spec, true)
				fmt.Fprintf(&got, "%s: %+v\n", what, *r)
			}
		}
	}
	matchGolden(t, "testdata/windowed.golden", got.Bytes())
}
