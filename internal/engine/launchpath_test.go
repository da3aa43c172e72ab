package engine

import (
	"bytes"
	"flag"
	"os"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine/job"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.trace.golden from the scheduler under test")

// TestSchedulerTraceMatchesParent drives launch, handleTaskDone, reclaimNode
// and speculate through everything that reorders the pending queue or reads
// the per-task table — replication 1 (the local-first pass picks mid-slice),
// transient task faults (retries excluded from the failing executor), a
// slowed executor under speculation (backup copies excluded from the
// straggler's executor), and a reduce-phase crash with restart (in-flight
// copies requeued, completed map tasks un-completed, lineage recovery sets) —
// and compares the whole trace with the bytes the scheduler produced before
// its per-task maps became one table (captured with -update on that commit;
// its one exec_suspect line was captured again when the failure detector's
// suspicion moved from two silent beats to three, before the beat counts
// became constants).
func TestSchedulerTraceMatchesParent(t *testing.T) {
	run := func(crashes []chaos.Crash, w *bytes.Buffer) *JobReport {
		spec, inputs := twoStageJob()
		opts := grayOptions(4, core.Static{IOThreads: 4})
		opts.Inputs = inputs
		opts.Replication = 1
		opts.Config = Conf(opts.Config, "speculation=true")
		if w != nil {
			opts.Trace = w
			opts.TraceFormat = 2
		}
		opts.Faults = &chaos.Plan{
			Name:          "launchpath",
			Seed:          11,
			Slows:         []chaos.Slow{{Exec: 1, At: time.Second, Factor: 6}},
			Crashes:       crashes,
			TaskFaultRate: 0.08,
		}
		rep, err := Run(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// Aim the crash a third of the way into the reduce stage of this very
	// run, so it takes registered map output with it.
	red := run(nil, nil).Stages[1]
	var trace bytes.Buffer
	rep := run([]chaos.Crash{{Exec: 2, At: red.Start + (red.End-red.Start)/3, RestartAfter: 5 * time.Second}}, &trace)

	// The golden only pins the paths the run actually took.
	var retries, speculative, requeued, tasks, local int
	for _, st := range rep.Stages {
		retries += st.Retries
		speculative += st.Speculative
		requeued += st.Requeued
	}
	for _, e := range rep.Stages[0].Execs {
		tasks += e.Tasks
		local += e.LocalTasks
	}
	switch {
	case retries == 0:
		t.Fatal("no task retried: the exclusion path is not covered")
	case speculative == 0:
		t.Fatal("no speculative copy queued")
	case requeued == 0 || rep.LostExecutors == 0:
		t.Fatalf("requeued = %d, lost executors = %d: the crash reclaimed nothing", requeued, rep.LostExecutors)
	case rep.ResubmittedStages == 0:
		t.Fatal("no lineage recovery set ran")
	case local == 0 || local == tasks:
		t.Fatalf("%d of %d map tasks local: the mid-slice pick is not covered", local, tasks)
	}

	matchGolden(t, "testdata/launchpath.trace.golden", trace.Bytes())
}

// TestPartialReplicationTraceMatchesParent is the benchmark's wide_cluster r3
// cell at 16 nodes — replication 3, 24 one-block tasks per node, transient task
// faults, one 3x slow node, one heartbeat-dropping partition, 10 ms control
// latency, core.Default{} — with speculation on: most picks are local ones from
// the middle of the queue, the tail of the stage is remote ones from its head,
// and retries and backup copies re-enter behind both. The golden was captured
// with -update from the scheduler that scanned the whole queue per launch.
func TestPartialReplicationTraceMatchesParent(t *testing.T) {
	const nodes = 16
	cfg := cluster.DAS5(nodes)
	cfg.Variability = device.DefaultVariability(7)
	cfg.ControlLatency = 10 * time.Millisecond
	var trace bytes.Buffer
	rep, err := Run(Options{
		Cluster:     cfg,
		BlockSize:   64 * device.MiB,
		Replication: 3,
		Policy:      core.Default{},
		Config:      Conf(nil, "speculation=true"),
		Faults: &chaos.Plan{
			Name:          "r3scan",
			Seed:          7,
			TaskFaultRate: 0.02,
			Slows:         []chaos.Slow{{Exec: 1, At: 5 * time.Second, Factor: 3}},
			Partitions:    []chaos.Partition{{Exec: 2, At: 8 * time.Second, Duration: 40 * time.Second}},
		},
		Inputs:      []Input{{Name: "in", Size: nodes * 24 * 64 * device.MiB}},
		Trace:       &trace,
		TraceFormat: 2,
	}, &job.JobSpec{Name: "r3scan", Stages: []*job.StageSpec{
		{ID: 0, Name: "scan", InputFile: "in", CPUSecondsPerTask: 0.35},
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stages[0]
	var tasks, local int
	for _, e := range st.Execs {
		tasks += e.Tasks
		local += e.LocalTasks
	}
	switch {
	case st.Retries == 0:
		t.Fatal("no task retried: the exclusion path is not covered")
	case st.Speculative == 0:
		t.Fatal("no speculative copy queued")
	case local == 0 || local == tasks:
		t.Fatalf("%d of %d tasks local: the run does not mix local and remote picks", local, tasks)
	}
	matchGolden(t, "testdata/r3scan.trace.golden", trace.Bytes())
}

// matchGolden compares got with the golden file (rewritten first under
// -update) and names the first line that differs.
func matchGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range gl {
			if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace diverges from %s at line %d:\n got %s", golden, i+1, gl[i])
			}
		}
		t.Fatalf("trace is %d lines, %s has %d", len(gl), golden, len(wl))
	}
}
