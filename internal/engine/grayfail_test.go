package engine

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/core"
	"sae/internal/engine/job"
)

// grayOptions quickens the heartbeat so gray-failure scenarios play out
// within the short test jobs: beats every second, so suspicion after three
// silent seconds and loss declared at six.
func grayOptions(nodes int, policy job.Policy) Options {
	opts := testOptions(nodes, policy)
	opts.Config = Conf(opts.Config, "executor.heartbeatInterval=1s")
	return opts
}

// TestHeartbeatFalsePositiveFencesExecutor drives the detector through its
// false-positive path: executor 1 is partitioned (heartbeats drop, its
// tasks keep running) for longer than the heartbeat timeout, so the driver
// suspects it, declares it lost and requeues its work. When the partition
// heals, the next beat from the declared-lost incarnation must fence it —
// order it onto a fresh epoch — and re-admit it through the join path, with
// no task result double-counted and no slot double-released.
func TestHeartbeatFalsePositiveFencesExecutor(t *testing.T) {
	quiet := calibrate(t, core.Static{IOThreads: 4})
	partAt := quiet.Stages[0].End / 4

	run := func() (*JobReport, []byte) {
		var trace bytes.Buffer
		spec, inputs := twoStageJob()
		opts := grayOptions(4, core.Static{IOThreads: 4})
		opts.Inputs = inputs
		opts.Trace = &trace
		opts.Faults = chaos.PartitionAt(1, partAt, 10*time.Second)
		rep, err := Run(opts, spec)
		if err != nil {
			t.Fatalf("job did not survive the partition false positive: %v", err)
		}
		return rep, trace.Bytes()
	}
	rep, traceA := run()

	if rep.Suspected == 0 {
		t.Fatal("partition raised no heartbeat suspicion")
	}
	if rep.LostExecutors != 1 {
		t.Fatalf("LostExecutors = %d, want 1 (the false positive)", rep.LostExecutors)
	}
	if rep.Fenced != 1 {
		t.Fatalf("Fenced = %d, want 1", rep.Fenced)
	}
	events := TraceEvents(t, bytes.NewReader(traceA))
	seen := map[string]bool{}
	var lostAt, fenceAt float64
	for _, ev := range events {
		if ev.Exec != 1 {
			continue
		}
		switch ev.Type {
		case TraceExecSuspect, TraceExecLost, TraceExecFence, TraceExecCrash:
			seen[ev.Type] = true
			if ev.Type == TraceExecLost {
				lostAt = ev.At
			}
			if ev.Type == TraceExecFence {
				fenceAt = ev.At
			}
		}
	}
	for _, want := range []string{TraceExecSuspect, TraceExecLost, TraceExecFence} {
		if !seen[want] {
			t.Fatalf("trace missing %s for the partitioned executor", want)
		}
	}
	if seen[TraceExecCrash] {
		t.Fatal("false positive traced as a physical crash")
	}
	if fenceAt <= lostAt {
		t.Fatalf("fence at %v not after loss declaration at %v", fenceAt, lostAt)
	}
	// Every task counted exactly once despite the requeue + late results
	// from the declared-lost incarnation (its reports are dropped by the
	// aliveness filter, so accepted completions per stage == NumTasks).
	for _, st := range rep.Stages {
		var tasks int
		for _, e := range st.Execs {
			tasks += e.Tasks
		}
		if tasks != 32 {
			t.Fatalf("stage %d accepted completions = %d, want exactly 32", st.ID, tasks)
		}
	}

	// The false-positive path is fully deterministic.
	rep2, traceB := run()
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatalf("reports differ across identical runs:\nA: %+v\nB: %+v", rep, rep2)
	}
	if !bytes.Equal(traceA, traceB) {
		t.Fatal("trace streams differ across identical runs")
	}
}

// TestCrashDetectedByHeartbeatSilence checks that with the oracle gone, a
// physical crash is still detected — via heartbeat silence — and that
// detection happens at the configured timeout, not instantly.
func TestCrashDetectedByHeartbeatSilence(t *testing.T) {
	quiet := calibrate(t, core.Static{IOThreads: 4})
	crashAt := quiet.Stages[0].End * 2 / 5

	var trace bytes.Buffer
	spec, inputs := twoStageJob()
	opts := grayOptions(4, core.Static{IOThreads: 4})
	opts.Inputs = inputs
	opts.Trace = &trace
	opts.Faults = chaos.CrashAt(1, crashAt)
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatalf("job did not recover from the crash: %v", err)
	}
	if rep.LostExecutors != 1 {
		t.Fatalf("LostExecutors = %d, want 1", rep.LostExecutors)
	}
	events := TraceEvents(t, &trace)
	var crashT, lostT float64 = -1, -1
	for _, ev := range events {
		if ev.Exec != 1 {
			continue
		}
		if ev.Type == TraceExecCrash && crashT < 0 {
			crashT = ev.At
		}
		if ev.Type == TraceExecLost && lostT < 0 {
			lostT = ev.At
		}
	}
	if crashT < 0 || lostT < 0 {
		t.Fatalf("missing crash (%v) or loss (%v) event", crashT, lostT)
	}
	// Loss is declared only after the heartbeat timeout elapses — with a
	// beat accepted up to one interval before the crash, the declaration
	// lands in (timeout - interval, timeout + slack] after the crash.
	gap := time.Duration(float64(time.Second) * (lostT - crashT))
	timeout := lossBeats * time.Second
	if gap < timeout-time.Second {
		t.Fatalf("loss declared %v after crash, before the heartbeat timeout %v could elapse", gap, timeout)
	}
	if gap > timeout+2*time.Second {
		t.Fatalf("loss declared %v after crash, long past the heartbeat timeout %v", gap, timeout)
	}
}

// TestChaosMatrixDeterminism runs the new gray-failure chaos modes — node
// slowdown, network partition, replica corruption, and all three combined —
// and requires byte-identical reports and traces across repeated runs of
// each, with the job completing every time.
func TestChaosMatrixDeterminism(t *testing.T) {
	quiet := calibrate(t, core.DefaultDynamic())
	at := quiet.Runtime / 4
	plans := []*chaos.Plan{
		chaos.SlowAt(1, at, 4),
		chaos.PartitionAt(2, at, 10*time.Second),
		chaos.Corrupt(0.3, 11),
		{
			Name:        "graymix",
			Seed:        11,
			Slows:       []chaos.Slow{{Exec: 1, At: at, Factor: 4}},
			Partitions:  []chaos.Partition{{Exec: 2, At: at, Duration: 10 * time.Second}},
			CorruptRate: 0.3,
		},
	}
	for _, plan := range plans {
		t.Run(plan.Name, func(t *testing.T) {
			run := func() (*JobReport, []byte) {
				var trace bytes.Buffer
				spec, inputs := twoStageJob()
				opts := grayOptions(4, core.DefaultDynamic())
				opts.Inputs = inputs
				opts.Trace = &trace
				opts.Faults = plan
				rep, err := Run(opts, spec)
				if err != nil {
					t.Fatalf("job failed under %s: %v", plan.Name, err)
				}
				return rep, trace.Bytes()
			}
			repA, traceA := run()
			repB, traceB := run()
			if !reflect.DeepEqual(repA, repB) {
				t.Fatalf("reports differ across identical %s runs", plan.Name)
			}
			if !bytes.Equal(traceA, traceB) {
				t.Fatalf("traces differ across identical %s runs", plan.Name)
			}
			if plan.CorruptRate > 0 && repA.ChecksumFailovers == 0 {
				t.Fatalf("%s: corruption rate %g produced no checksum failovers", plan.Name, plan.CorruptRate)
			}
		})
	}
}

// TestFetchRetriesAbsorbTransients checks the wired
// shuffle.io.maxRetries/retryWait path: with retries enabled, injected
// transient fetch failures are mostly absorbed by backoff-and-retry instead
// of surfacing as failed attempts.
func TestFetchRetriesAbsorbTransients(t *testing.T) {
	spec, inputs := twoStageJob()
	opts := testOptions(4, core.Default{})
	opts.Inputs = inputs
	opts.Faults = &chaos.Plan{Name: "fetchstorm", Seed: 5, FetchFaultRate: 0.4}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatalf("fetch storm aborted the job: %v", err)
	}
	if rep.FetchRetries == 0 {
		t.Fatal("40% fetch-fault rate produced no bounded retries")
	}

	// The same storm with retries disabled must surface more failed
	// attempts at the scheduler.
	specB, inputsB := twoStageJob()
	optsB := testOptions(4, core.Default{})
	optsB.Inputs = inputsB
	optsB.Config = Conf(optsB.Config, "shuffle.io.maxRetries=0")
	optsB.Faults = &chaos.Plan{Name: "fetchstorm", Seed: 5, FetchFaultRate: 0.4}
	repB, err := Run(optsB, specB)
	if err != nil {
		t.Fatalf("fetch storm without retries aborted the job: %v", err)
	}
	if repB.FetchRetries != 0 {
		t.Fatalf("retries disabled but FetchRetries = %d", repB.FetchRetries)
	}
	retries := func(r *JobReport) int {
		n := 0
		for _, st := range r.Stages {
			n += st.Retries
		}
		return n
	}
	if retries(rep) >= retries(repB) {
		t.Fatalf("bounded fetch retries did not reduce failed attempts: %d with vs %d without",
			retries(rep), retries(repB))
	}
}

// TestHeartbeatConfigWiring checks executor.heartbeatInterval,
// shuffle.io.maxRetries and shuffle.io.retryWait flow from the registry
// into what the run reads, and that zero retries mean none.
func TestHeartbeatConfigWiring(t *testing.T) {
	c := readConfig(Conf(nil, "executor.heartbeatInterval=2s", "shuffle.io.maxRetries=7", "shuffle.io.retryWait=250ms"))
	if c.heartbeat != 2*time.Second || c.fetchRetries != 7 || c.fetchRetryWait != 250*time.Millisecond {
		t.Fatalf("heartbeat %v, %d fetch retries, retry wait %v; want 2s, 7, 250ms", c.heartbeat, c.fetchRetries, c.fetchRetryWait)
	}
	if c = readConfig(Conf(nil, "shuffle.io.maxRetries=0")); c.fetchRetries != 0 {
		t.Fatalf("maxRetries=0 should disable retries, got %d", c.fetchRetries)
	}
}

// TestQuietTraceDeterminism is the quiet-plan (no faults) counterpart of the
// chaos matrix: engine traces must be byte-identical across repeated runs,
// and a run executing concurrently with other engines on separate goroutines
// — as an artifact's fan-out runs them — must produce the very same bytes, because
// every run owns its entire simulated world.
func TestQuietTraceDeterminism(t *testing.T) {
	run := func() (*JobReport, []byte, error) {
		var trace bytes.Buffer
		spec, inputs := twoStageJob()
		opts := grayOptions(4, core.DefaultDynamic())
		opts.Inputs = inputs
		opts.Trace = &trace
		rep, err := Run(opts, spec)
		return rep, trace.Bytes(), err
	}
	repA, traceA, errA := run()
	repB, traceB, errB := run()
	if errA != nil || errB != nil {
		t.Fatalf("quiet run failed: %v / %v", errA, errB)
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Fatal("reports differ across identical quiet runs")
	}
	if !bytes.Equal(traceA, traceB) {
		t.Fatal("traces differ across identical quiet runs")
	}
	// Four engines at once, each on its own goroutine with its own kernel.
	const n = 4
	traces := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, tr, err := run()
			if err != nil {
				t.Errorf("concurrent quiet run %d failed: %v", i, err)
				return
			}
			traces[i] = tr
		}(i)
	}
	wg.Wait()
	for i, tr := range traces {
		if tr == nil {
			continue
		}
		if !bytes.Equal(tr, traceA) {
			t.Fatalf("concurrent run %d trace differs from solo run", i)
		}
	}
}
