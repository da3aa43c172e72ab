package engine

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"sae/internal/autoscale"
	"sae/internal/chaos"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine/job"
)

// scriptPolicy returns a fixed target per planning tick (the last one
// repeats), so tests can force exact scale decisions.
type scriptPolicy struct {
	targets []int
	i       int
}

func (p *scriptPolicy) Name() string { return "script" }

func (p *scriptPolicy) Target(s autoscale.Snapshot) (int, string) {
	t := p.targets[len(p.targets)-1]
	if p.i < len(p.targets) {
		t = p.targets[p.i]
		p.i++
	}
	return t, "scripted"
}

// countTrace tallies trace event types, optionally for one executor.
func countTrace(t *testing.T, buf *bytes.Buffer) map[string]int {
	t.Helper()
	events := TraceEvents(t, buf)
	n := map[string]int{}
	for _, ev := range events {
		n[ev.Type]++
	}
	return n
}

// TestDrainNeverTripsFailureDetector is the drain/detector contract: a
// gracefully drained node must finish its in-flight tasks, decommission,
// and never appear in LostExecutors or Suspected — the failure detector has
// nothing to detect.
func TestDrainNeverTripsFailureDetector(t *testing.T) {
	spec, in := pipelineJob("drainjob", 32)
	opts := testOptions(4, core.Default{})
	opts.Inputs = []Input{in}
	var trace bytes.Buffer
	opts.Trace = &trace
	opts.Autoscale = &AutoscaleConfig{
		Policy: &scriptPolicy{targets: []int{4, 2}},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostExecutors != 0 {
		t.Errorf("LostExecutors = %d, want 0: a drain is not a loss", rep.LostExecutors)
	}
	if rep.Suspected != 0 {
		t.Errorf("Suspected = %d, want 0: drained nodes stop beating only after decommission", rep.Suspected)
	}
	n := countTrace(t, &trace)
	if n[TraceDrain] != 2 || n[TraceDecommission] != 2 {
		t.Errorf("drains/decommissions = %d/%d, want 2/2", n[TraceDrain], n[TraceDecommission])
	}
	if n[TraceExecLost] != 0 || n[TraceExecSuspect] != 0 || n[TraceExecCrash] != 0 {
		t.Errorf("failure-path events during graceful drain: %v", n)
	}
	// A graceful drain keeps serving registered map output until its
	// consumers finish — it must never force a lineage resubmission.
	if n[TraceStageResubmit] != 0 || rep.ResubmittedStages != 0 {
		t.Errorf("graceful drain destroyed referenced shuffle output: %d resubmit event(s), report %d",
			n[TraceStageResubmit], rep.ResubmittedStages)
	}
}

// TestScaleUpActivatesNodes starts small and scales out: the activated
// nodes join through the exec-join path and run tasks.
func TestScaleUpActivatesNodes(t *testing.T) {
	spec, in := pipelineJob("growjob", 32)
	opts := testOptions(4, core.Default{})
	opts.Inputs = []Input{in}
	var trace bytes.Buffer
	opts.Trace = &trace
	opts.Autoscale = &AutoscaleConfig{
		Policy:       &scriptPolicy{targets: []int{4}},
		InitialNodes: 1,
	}
	e, err := NewEngine(opts)
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
	if err != nil {
		t.Fatal(err)
	}
	ar := e.AutoscaleReport()
	if ar == nil || ar.Activations != 3 {
		t.Fatalf("autoscale report = %+v, want 3 activations", ar)
	}
	if ar.PeakNodes != 4 || ar.FinalNodes != 4 {
		t.Errorf("peak/final nodes = %d/%d, want 4/4", ar.PeakNodes, ar.FinalNodes)
	}
	if ar.NodeSeconds <= 0 {
		t.Error("node-seconds not accounted")
	}
	if rep.LostExecutors != 0 || rep.Suspected != 0 {
		t.Errorf("scale-up produced losses: lost=%d suspected=%d", rep.LostExecutors, rep.Suspected)
	}
	// The late joiners must actually have run work in some stage.
	ran := map[int]bool{}
	for _, st := range rep.Stages {
		for i, es := range st.Execs {
			if es.Tasks > 0 {
				ran[i] = true
			}
		}
	}
	if len(ran) < 2 {
		t.Errorf("only executors %v ran tasks; scaled-up nodes never joined", ran)
	}
	if n := countTrace(t, &trace); n[TraceScaleUp] != 3 {
		t.Errorf("scale_up events = %d, want 3", n[TraceScaleUp])
	}
}

// TestCrashMidDrainStillRecovers kills a node after its drain begins but
// before it quiesces: the crash must flow through the normal loss/lineage
// machinery — its registered map output is regenerated and the job still
// completes correctly.
func TestCrashMidDrainStillRecovers(t *testing.T) {
	// Short map, long reduce: every node holds registered map output when
	// the drain starts at the t=10s tick, so the draining node is still
	// obligated (in-flight reduce tasks plus shuffle data) when the crash at
	// t=11s kills it — it can never quiesce gracefully.
	in := int64(16) * 64 * device.MiB
	spec := &job.JobSpec{
		Name: "midcrash",
		Stages: []*job.StageSpec{
			{ID: 0, Name: "map", InputFile: "mc/in", CPUSecondsPerTask: 0.05,
				ShuffleWriteBytes: in / 2},
			{ID: 1, Name: "reduce", NumTasks: 48, ShuffleFrom: []int{0},
				CPUSecondsPerTask: 3, OutputFile: "mc/out", OutputBytes: in / 4},
		},
	}
	opts := testOptions(4, core.Static{IOThreads: 4})
	opts.Inputs = []Input{{Name: "mc/in", Size: in}}
	var trace bytes.Buffer
	opts.Trace = &trace
	opts.Autoscale = &AutoscaleConfig{
		Policy: &scriptPolicy{targets: []int{3}},
	}
	opts.Faults = &chaos.Plan{
		Name:    "draincrash",
		Crashes: []chaos.Crash{{Exec: 3, At: 11 * time.Second}},
	}
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	drainAt := bytes.Index(trace.Bytes(), []byte(`"type":"`+TraceDrain+`"`))
	if crashAt := bytes.Index(trace.Bytes(), []byte(`"type":"`+TraceExecCrash+`"`)); drainAt < 0 || crashAt < drainAt {
		t.Fatal("the crash did not come after the drain began")
	}
	n := countTrace(t, &trace)
	if n[TraceDrain] != 1 {
		t.Fatalf("drain events = %d, want 1 (node 3 draining at t=10s)", n[TraceDrain])
	}
	if n[TraceExecCrash] != 1 {
		t.Fatalf("crash events = %d, want 1 (node 3 dying mid-drain)", n[TraceExecCrash])
	}
	if n[TraceDecommission] != 0 {
		t.Errorf("decommission events = %d, want 0: the node died before quiescing", n[TraceDecommission])
	}
	if rep.ResubmittedStages == 0 {
		t.Errorf("no lineage resubmission: the crashed node's registered map output was never regenerated (report: %+v)", rep)
	}
}

// TestAutoscaleDeterminism replays a full elastic run — staggered tenant
// arrivals, adaptive policy, scale-ups and drains — and demands
// byte-identical traces and reports.
func TestAutoscaleDeterminism(t *testing.T) {
	run := func() ([]*JobReport, []byte, *AutoscaleReport) {
		var trace bytes.Buffer
		opts := testOptions(6, core.Default{})
		opts.Trace = &trace
		opts.Config = Conf(nil, "scheduler.mode=FAIR")
		opts.Autoscale = &AutoscaleConfig{
			Policy:       &autoscale.Adaptive{Alpha: 0.3, DrainTarget: 2 * time.Minute, Headroom: 1.2, MinSamplePeriod: 5 * time.Second},
			InitialNodes: 2,
		}
		var handles []*JobHandle
		specs := make([]*job.JobSpec, 0, 4)
		for i := 0; i < 4; i++ {
			spec, in := pipelineJob([]string{"a", "b", "c", "d"}[i], 8)
			spec.Tenant = []string{"interactive", "batch", "interactive", "batch"}[i]
			specs = append(specs, spec)
			opts.Inputs = append(opts.Inputs, in)
		}
		eng, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			h, err := eng.SubmitAt(time.Duration(i)*25*time.Second, spec)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		if err := eng.Wait(); err != nil {
			t.Fatal(err)
		}
		var reps []*JobReport
		for _, h := range handles {
			rep, err := h.Report()
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		return reps, trace.Bytes(), eng.AutoscaleReport()
	}
	reps1, trace1, ar1 := run()
	reps2, trace2, ar2 := run()
	for i := range reps1 {
		if !reflect.DeepEqual(reps1[i], reps2[i]) {
			t.Errorf("job %d report differs between identical elastic runs", i)
		}
	}
	if !bytes.Equal(trace1, trace2) {
		t.Error("traces differ between identical elastic runs")
	}
	if !reflect.DeepEqual(ar1, ar2) {
		t.Errorf("autoscale reports differ: %+v vs %+v", ar1, ar2)
	}
	for _, rep := range reps1 {
		if rep.Tenant == "" {
			t.Error("tenant label lost on report")
		}
		if rep.QueueDelay < 0 {
			t.Errorf("negative queue delay %v", rep.QueueDelay)
		}
	}
}

// TestSameInstantAdmissionOrder is the SubmitAt regression test: two jobs
// submitted at the same sim instant are admitted in submission-sequence
// order under both FIFO and FAIR, and FAIR actually shares the first slot
// wave between them instead of letting the first admission grab everything.
func TestSameInstantAdmissionOrder(t *testing.T) {
	firstWave := func(mode string) (order []int, wave map[int]int) {
		specA, inA := pipelineJob("alpha", 16)
		specB, inB := pipelineJob("beta", 16)
		// 2 threads × 4 nodes = 8 slots < 16+16 tasks, so the first wave
		// is contended and the admission order is observable.
		opts := testOptions(4, core.Static{IOThreads: 2})
		opts.Config = Conf(nil, "scheduler.mode="+mode)
		opts.Inputs = []Input{inA, inB}
		var trace bytes.Buffer
		opts.Trace = &trace
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.SubmitAt(10*time.Second, specA); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SubmitAt(10*time.Second, specB); err != nil {
			t.Fatal(err)
		}
		if err := e.Wait(); err != nil {
			t.Fatal(err)
		}
		events := TraceEvents(t, &trace)
		wave = map[int]int{}
		for _, ev := range events {
			switch ev.Type {
			case TraceJobStart:
				order = append(order, ev.Job)
			case TraceTaskLaunch:
				if ev.At == 10.0 {
					wave[ev.Job]++
				}
			}
		}
		return order, wave
	}
	for _, mode := range []string{"FIFO", "FAIR"} {
		order, wave := firstWave(mode)
		if len(order) != 2 || order[0] != 0 || order[1] != 1 {
			t.Errorf("%s: job_start order = %v, want [0 1] (submission sequence)", mode, order)
		}
		switch mode {
		case "FIFO":
			if wave[1] != 0 || wave[0] == 0 {
				t.Errorf("FIFO first wave = %v, want all slots on job 0", wave)
			}
		case "FAIR":
			if wave[0] == 0 || wave[1] == 0 {
				t.Errorf("FAIR first wave = %v, want both same-instant jobs sharing slots", wave)
			}
		}
	}
}

// TestFailedJobReleasesDrains: a job that fails after its map stage
// registered output drops those registrations as a finished job does, so the
// shuffle gauge reads 0 and the draining nodes that held the output
// decommission rather than being billed to the end of the run. Map tasks
// still running when their job fails register nothing when they end.
func TestFailedJobReleasesDrains(t *testing.T) {
	in := int64(16) * 64 * device.MiB
	boom := errors.New("boom")
	failsFirst := func(tc job.TaskContext) error {
		if tc.Index() == 0 {
			return boom
		}
		return nil
	}
	run := func(stages ...*job.StageSpec) (*Engine, map[string]int) {
		opts := testOptions(4, core.Static{IOThreads: 4})
		opts.Inputs = []Input{{Name: "fail/in", Size: in}}
		var trace bytes.Buffer
		opts.Trace = &trace
		opts.Autoscale = &AutoscaleConfig{Policy: &scriptPolicy{targets: []int{2}}}
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.Submit(&job.JobSpec{Name: "failing", Stages: stages})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Report(); !errors.Is(err, boom) {
			t.Fatalf("job error %v, want boom", err)
		}
		if got := e.shuffle.registeredBytes(); got != 0 {
			t.Errorf("the failed job left %d shuffle bytes registered", got)
		}
		return e, countTrace(t, &trace)
	}

	// Each attempt of reduce task 0 fails after 4s, so the fourth fails the
	// job well after the drain at the 10s tick.
	_, n := run(
		&job.StageSpec{ID: 0, Name: "map", InputFile: "fail/in", CPUSecondsPerTask: 0.05, ShuffleWriteBytes: in / 2},
		&job.StageSpec{ID: 1, Name: "reduce", NumTasks: 8, ShuffleFrom: []int{0}, Work: opsThen(failsFirst, computeOp(4))},
	)
	if n[TraceDrain] != 2 || n[TraceDecommission] != 2 {
		t.Errorf("drains/decommissions = %d/%d, want 2/2: a node that held the failed job's output stayed draining", n[TraceDrain], n[TraceDecommission])
	}

	// Map task 0 fails at once, four times over, while its siblings compute:
	// they spill their output after the job has failed.
	spill := opsThen(nil, computeOp(1), job.Op{Kind: job.OpWriteShuffle, Bytes: device.MiB})
	run(&job.StageSpec{ID: 0, Name: "map", NumTasks: 16, Work: func(i int) job.Ops {
		if i == 0 {
			return &scriptedOps{end: failsFirst}
		}
		return spill(i)
	}})
}
