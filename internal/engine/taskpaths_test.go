package engine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/core"
	"sae/internal/engine/job"
)

// TestTaskPathsAgree holds the two task drivers to each other: a stage with
// no Work runs its tasks as stackless processes stepping job.AnalyticOps,
// and the same stage with Work = job.AnalyticWork{} runs the same operations
// through the blocking job.TaskContext methods on a coroutine. Both must
// write the same trace bytes and the same report under fault mixes that
// visit every resumable phase of an operation — replica failover, fetch
// backoff, an injected I/O fault mid-read and a zombie's fast-forward — which
// the counters below prove were visited. (A sharded engine refuses custom
// Work, so stackless tasks on shard kernels are covered by the shard
// equivalence tests instead.)
func TestTaskPathsAgree(t *testing.T) {
	type visited struct{ failovers, fetchRetries, ioFaults, zombies int }
	run := func(t *testing.T, coroutine bool, mix func(*Options, *job.JobSpec)) ([]byte, *JobReport, visited) {
		t.Helper()
		spec, inputs := twoStageJob()
		if coroutine {
			for _, st := range spec.Stages {
				st.Work = func(int) job.Work { return job.AnalyticWork{} }
			}
		}
		var trace bytes.Buffer
		var eng *Engine
		opts := grayOptions(4, core.Static{IOThreads: 4})
		opts.Inputs = inputs
		opts.Trace = &trace
		opts.TraceFormat = 2
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
			o.Speculation = true
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
			o.FetchMaxRetries = 3
			o.FetchRetryWait = 200 * time.Millisecond
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
			traceS, repS, v := run(t, false, m.mix)
			traceC, repC, vc := run(t, true, m.mix)
			if !bytes.Equal(traceS, traceC) {
				sl, cl := bytes.Split(traceS, []byte("\n")), bytes.Split(traceC, []byte("\n"))
				for i := range sl {
					if i >= len(cl) || !bytes.Equal(sl[i], cl[i]) {
						t.Fatalf("traces diverge at line %d:\n stackless %s\n coroutine %s", i+1, sl[i], cl[min(i, len(cl)-1)])
					}
				}
				t.Fatalf("stackless trace is %d lines, coroutine trace %d", len(sl), len(cl))
			}
			if !reflect.DeepEqual(repS, repC) {
				t.Fatalf("reports differ:\n stackless %+v\n coroutine %+v", repS, repC)
			}
			if v != vc {
				t.Fatalf("visit counters differ: stackless %+v, coroutine %+v", v, vc)
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
