package engine

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/core"
	"sae/internal/engine/job"
)

// replayOps is a custom generator that yields the analytic cost loop.
type replayOps struct {
	plan  job.AnalyticOps
	begun bool
}

func (r *replayOps) Next(tc job.TaskContext, got int64) job.Op {
	if !r.begun {
		r.begun = true
		r.plan.Begin(tc)
	}
	return r.plan.Next(tc, got)
}

// TestTaskPathsAgree holds the two sources of a task's operations to each
// other: a stage with no Work steps the job.AnalyticOps its context embeds,
// and the same stage with a custom Work that replays job.AnalyticOps takes
// every operation through the job.Ops hook. Both must write the same trace
// bytes and the same report under fault mixes that visit every resumable
// phase of an operation — replica failover, fetch backoff, an injected I/O
// fault mid-read and a zombie's fast-forward — which the counters below prove
// were visited: the hook perturbs nothing, and what a generator yields is all
// that distinguishes a custom stage from a built-in one. (A sharded engine
// refuses custom Work, so tasks on shard kernels are covered by the shard
// equivalence tests instead.)
func TestTaskPathsAgree(t *testing.T) {
	type visited struct{ failovers, fetchRetries, ioFaults, zombies int }
	run := func(t *testing.T, custom bool, mix func(*Options, *job.JobSpec)) ([]byte, *JobReport, visited) {
		t.Helper()
		spec, inputs := twoStageJob()
		if custom {
			for _, st := range spec.Stages {
				st.Work = func(int) job.Ops { return new(replayOps) }
			}
		}
		var trace bytes.Buffer
		var eng *Engine
		opts := grayOptions(4, core.Static{IOThreads: 4})
		opts.Inputs = inputs
		opts.Trace = &trace
		opts.OnSetup = func(e *Engine) { eng = e }
		mix(&opts, spec)
		rep, err := Run(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		events, err := ReadTrace(bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		v := visited{failovers: rep.ChecksumFailovers, fetchRetries: rep.FetchRetries}
		for _, ev := range events {
			if ev.Type == TraceTaskFail && strings.Contains(ev.Detail, errInjectedIO.Error()) {
				v.ioFaults++
			}
		}
		for _, ex := range eng.executors {
			v.zombies += ex.zombies
		}
		return trace.Bytes(), rep, v
	}

	// The reduce stage's window in a quiet run aims the crash and the
	// partition at registered map output and open fetches.
	red := calibrate(t, core.Static{IOThreads: 4}).Stages[1]
	mixes := []struct {
		name string
		mix  func(*Options, *job.JobSpec)
	}{
		// The launchpath.trace.golden mix.
		{"launchpath", func(o *Options, _ *job.JobSpec) {
			o.Replication = 1
			o.Config = Conf(o.Config, "speculation=true")
			o.Faults = &chaos.Plan{
				Name:          "launchpath",
				Seed:          11,
				Slows:         []chaos.Slow{{Exec: 1, At: time.Second, Factor: 6}},
				Crashes:       []chaos.Crash{{Exec: 2, At: red.Start + (red.End-red.Start)/3, RestartAfter: 5 * time.Second}},
				TaskFaultRate: 0.08,
			}
		}},
		// Gray failures: rotten replicas, a partition window over open
		// fetches, injected fetch faults retried with backoff — on a map
		// stage whose spill and compute charges follow the executor's
		// concurrency at the moment they are issued.
		{"grayfail", func(o *Options, spec *job.JobSpec) {
			spec.Stages[0].SpillPressure = 0.5
			spec.Stages[0].MemPressure = 0.3
			o.Replication = 3
			o.Config = Conf(o.Config, "shuffle.io.maxRetries=3", "shuffle.io.retryWait=200ms")
			o.Faults = &chaos.Plan{
				Name:           "grayfail",
				Seed:           5,
				Partitions:     []chaos.Partition{{Exec: 1, At: red.Start + (red.End-red.Start)/4, Duration: 10 * time.Second}},
				TaskFaultRate:  0.05,
				FetchFaultRate: 0.3,
				CorruptRate:    0.1,
			}
		}},
	}
	var total visited
	for _, m := range mixes {
		t.Run(m.name, func(t *testing.T) {
			traceB, repB, v := run(t, false, m.mix)
			traceC, repC, vc := run(t, true, m.mix)
			if !bytes.Equal(traceB, traceC) {
				bl, cl := bytes.Split(traceB, []byte("\n")), bytes.Split(traceC, []byte("\n"))
				for i := range bl {
					if i >= len(cl) || !bytes.Equal(bl[i], cl[i]) {
						t.Fatalf("traces diverge at line %d:\n built-in %s\n custom   %s", i+1, bl[i], cl[min(i, len(cl)-1)])
					}
				}
				t.Fatalf("built-in trace is %d lines, custom trace %d", len(bl), len(cl))
			}
			if !reflect.DeepEqual(repB, repC) {
				t.Fatalf("reports differ:\n built-in %+v\n custom   %+v", repB, repC)
			}
			if v != vc {
				t.Fatalf("visit counters differ: built-in %+v, custom %+v", v, vc)
			}
			t.Logf("visited %+v", v)
			total.failovers += v.failovers
			total.fetchRetries += v.fetchRetries
			total.ioFaults += v.ioFaults
			total.zombies += v.zombies
		})
	}
	switch {
	case total.failovers == 0:
		t.Error("no checksum failover: the wasted pull and its resume are not covered")
	case total.fetchRetries == 0:
		t.Error("no fetch retry: the backoff wait is not covered")
	case total.ioFaults == 0:
		t.Error("no task_fail from an injected I/O fault: the mid-read abort is not covered")
	case total.zombies == 0:
		t.Error("no zombie finished after its executor's epoch moved: the fast-forward is not covered")
	}
}

// goroutineWatch is replayOps that notes, every time one of its task's
// operations ends, how many goroutines exist.
type goroutineWatch struct {
	replayOps
	peak *int
}

func (w *goroutineWatch) Next(tc job.TaskContext, got int64) job.Op {
	*w.peak = max(*w.peak, runtime.NumGoroutine())
	return w.replayOps.Next(tc, got)
}

// TestEngineRunsWithoutCoroutines: a coroutine is a goroutine, and none
// exists while the engine runs — with the driver and every executor waiting
// for a message and every other task queued on a device, the goroutine count
// seen from inside a custom task's generator is the count before the run,
// through a crash, a restart and their zombies too.
func TestEngineRunsWithoutCoroutines(t *testing.T) {
	spec, inputs := twoStageJob()
	base, peak := runtime.NumGoroutine(), 0
	for _, st := range spec.Stages {
		st.Work = func(int) job.Ops { return &goroutineWatch{peak: &peak} }
	}
	opts := grayOptions(4, core.Static{IOThreads: 4})
	opts.Inputs = inputs
	opts.Faults = chaos.CrashRestart(2, 2*time.Second, 5*time.Second)
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostExecutors != 1 {
		t.Fatalf("lost executors = %d, want 1: the crash missed the run", rep.LostExecutors)
	}
	if peak == 0 || peak > base {
		t.Fatalf("%d goroutines during the run, %d before it: something runs on a coroutine", peak, base)
	}
}
