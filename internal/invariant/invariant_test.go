package invariant

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sae/internal/chaos"
	"sae/internal/conf"
	"sae/internal/core"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/exp"
	"sae/internal/scenario"
	"sae/internal/workloads"
)

// crashSetup is the canonical audited fault run: terasort at small scale
// with a tight failure detector, so the crash at 8s is declared lost
// mid-run with tasks in flight.
func crashSetup(t *testing.T) exp.Setup {
	t.Helper()
	s := exp.Default().WithScale(0.02)
	reg := conf.New()
	if err := reg.Set("executor.heartbeatInterval", "2s"); err != nil {
		t.Fatal(err)
	}
	s.Config = reg
	plan, err := chaos.Parse("crash1@8s")
	if err != nil {
		t.Fatal(err)
	}
	s.Faults = plan
	return s
}

func runTerasort(t *testing.T, s exp.Setup) {
	t.Helper()
	w, err := workloads.ByName("terasort", workloads.Config{Nodes: s.Nodes, Scale: s.Scale})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w, core.DefaultDynamic(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestZeroPerturbation is the audit plane's core guarantee: attaching an
// auditor leaves the engine event log byte-identical, on quiet and on
// fault-injected runs.
func TestZeroPerturbation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) exp.Setup
	}{
		{"quiet", func(t *testing.T) exp.Setup { return exp.Default().WithScale(0.02) }},
		{"crash", crashSetup},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var plain, audited bytes.Buffer

			s := tc.setup(t)
			s.Trace = &plain
			runTerasort(t, s)

			s = tc.setup(t)
			s.Trace = &audited
			aud := New()
			s.Audit = aud
			runTerasort(t, s)

			if !bytes.Equal(plain.Bytes(), audited.Bytes()) {
				t.Fatalf("event log differs with audit attached (%d vs %d bytes)", plain.Len(), audited.Len())
			}
			if vs := aud.Violations(); len(vs) != 0 {
				t.Fatalf("unexpected violations: %v", vs)
			}
			if len(aud.Coverage()) == 0 {
				t.Fatal("auditor observed no coverage signals")
			}
		})
	}
}

// TestGoldenScenariosClean audits every committed scenario spec at the CI
// smoke setup (scale 0.05, seed 7): all invariants must hold and every
// expect assertion must pass (a failed expect would Flag into the stream).
func TestGoldenScenariosClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every committed scenario")
	}
	paths, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed scenario specs found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sp, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			s := sp.BaseSetup().WithScale(0.05)
			s.Seed = 7
			aud := New()
			s.Audit = aud
			c, err := sp.Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			for _, v := range aud.Violations() {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

// TestSkipSlotReclaimDetected is the oracle's mutation test: with the
// slot-reclaim bug injected into the engine, the audited crash run must
// produce a slot-conservation violation.
func TestSkipSlotReclaimDetected(t *testing.T) {
	restore := engine.EnableTestBug("skip-slot-reclaim")
	defer restore()
	s := crashSetup(t)
	aud := New()
	s.Audit = aud
	runTerasort(t, s)
	var got []string
	for _, v := range aud.Violations() {
		got = append(got, v.Rule)
		if v.Rule == "slot-conservation" {
			if !strings.Contains(v.Detail, "never reclaimed") {
				t.Errorf("unexpected detail: %s", v.Detail)
			}
			if v.Offset < 0 || v.At <= 0 {
				t.Errorf("violation lacks a trace location: %s", v)
			}
			return
		}
	}
	t.Fatalf("slot-conservation violation not detected; got rules %v", got)
}

// --- direct hook-level rule tests ---------------------------------------

func fresh(execs int) *Auditor {
	a := New()
	active := make([]bool, execs)
	for i := range active {
		active[i] = true
	}
	a.BeginRun(active)
	return a
}

func rules(a *Auditor) []string {
	var out []string
	for _, v := range a.Violations() {
		out = append(out, v.Rule)
	}
	return out
}

func wantRule(t *testing.T, a *Auditor, rule string) {
	t.Helper()
	for _, v := range a.Violations() {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("rule %s not flagged; got %v", rule, rules(a))
}

func wantClean(t *testing.T, a *Auditor) {
	t.Helper()
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func ev(typ string, exec int, at float64, detail string) engine.TraceEvent {
	return engine.TraceEvent{At: at, Type: typ, Job: -1, Stage: -1, Task: -1, Exec: exec, Detail: detail}
}

func TestRuleEpochMonotonic(t *testing.T) {
	a := fresh(2)
	a.ExecutorEpoch(0, 1)
	a.ExecutorEpoch(0, 2)
	wantClean(t, a)
	a.ExecutorEpoch(0, 2)
	wantRule(t, a, "epoch-monotonic")
}

func TestRuleReleaseWithoutLaunch(t *testing.T) {
	a := fresh(1)
	a.SlotReleased(0, 0)
	wantRule(t, a, "slot-conservation")
}

func TestRuleReclaimMismatch(t *testing.T) {
	a := fresh(1)
	a.SlotLaunched(0, 0)
	a.SlotsReclaimed(0, 3)
	wantRule(t, a, "slot-conservation")
}

func TestRuleLostWithBookedSlots(t *testing.T) {
	a := fresh(2)
	a.SlotLaunched(1, 0)
	a.Event(ev(engine.TraceExecSuspect, 1, 5, "missed heartbeats"))
	a.Event(ev(engine.TraceExecLost, 1, 10, engine.DetailHeartbeatTimeout))
	wantRule(t, a, "slot-conservation")
}

func TestRuleAssignmentLegality(t *testing.T) {
	a := fresh(2)
	a.Event(ev(engine.TraceExecSuspect, 1, 5, "missed heartbeats"))
	a.Event(ev(engine.TraceExecLost, 1, 10, engine.DetailHeartbeatTimeout))
	a.SlotLaunched(1, 0)
	wantRule(t, a, "assignment-legality")

	a = fresh(2)
	a.Event(ev(engine.TraceExecSuspect, 0, 5, "missed heartbeats"))
	a.SlotLaunched(0, 0)
	wantRule(t, a, "assignment-legality")

	a = fresh(2)
	a.Event(ev(engine.TraceBlacklist, 0, 5, ""))
	a.SlotLaunched(0, 0)
	wantRule(t, a, "assignment-legality")

	a = fresh(2)
	a.Event(ev(engine.TraceDrain, 0, 5, ""))
	a.SlotLaunched(0, 0)
	wantRule(t, a, "assignment-legality")
}

func TestRuleSuspectLegality(t *testing.T) {
	a := fresh(1)
	a.Event(ev(engine.TraceExecSuspect, 0, 5, engine.DetailSuspectCleared))
	wantRule(t, a, "suspect-legality")

	a = fresh(1)
	a.Event(ev(engine.TraceExecSuspect, 0, 5, "missed heartbeats"))
	a.Event(ev(engine.TraceExecSuspect, 0, 6, "missed heartbeats"))
	wantRule(t, a, "suspect-legality")
}

func TestRuleHeartbeatLegality(t *testing.T) {
	a := fresh(1)
	a.Event(ev(engine.TraceExecLost, 0, 10, engine.DetailHeartbeatTimeout))
	wantRule(t, a, "heartbeat-legality")

	// Fence on a live executor.
	a = fresh(1)
	a.Event(ev(engine.TraceExecFence, 0, 10, ""))
	wantRule(t, a, "heartbeat-legality")

	// The benign mailbox race: the beat clears suspicion at the exact
	// instant the detector declares the loss. Legal.
	a = fresh(1)
	a.Event(ev(engine.TraceExecSuspect, 0, 5, "missed heartbeats"))
	a.Event(ev(engine.TraceExecSuspect, 0, 10, engine.DetailSuspectCleared))
	a.Event(ev(engine.TraceExecLost, 0, 10, engine.DetailHeartbeatTimeout))
	wantClean(t, a)

	// A clear at an earlier instant does not excuse the declaration.
	a = fresh(1)
	a.Event(ev(engine.TraceExecSuspect, 0, 5, "missed heartbeats"))
	a.Event(ev(engine.TraceExecSuspect, 0, 9, engine.DetailSuspectCleared))
	a.Event(ev(engine.TraceExecLost, 0, 10, engine.DetailHeartbeatTimeout))
	wantRule(t, a, "heartbeat-legality")
}

func TestRuleDrainLegality(t *testing.T) {
	a := fresh(1)
	a.Event(ev(engine.TraceDecommission, 0, 10, ""))
	wantRule(t, a, "drain-legality")

	a = fresh(1)
	a.Event(ev(engine.TraceDrain, 0, 5, ""))
	a.Event(ev(engine.TraceDrain, 0, 6, ""))
	wantRule(t, a, "drain-legality")

	a = fresh(1)
	a.Event(ev(engine.TraceScaleUp, 0, 5, ""))
	wantRule(t, a, "drain-legality")

	// Decommission with booked slots leaks them.
	a = fresh(1)
	a.SlotLaunched(0, 0)
	a.Event(ev(engine.TraceDrain, 0, 5, ""))
	a.Event(ev(engine.TraceDecommission, 0, 6, ""))
	wantRule(t, a, "slot-conservation")

	// The legal lifecycle: drain, release, decommission, scale-up, rejoin.
	a = fresh(1)
	a.SlotLaunched(0, 0)
	a.Event(ev(engine.TraceDrain, 0, 5, ""))
	a.SlotReleased(0, 0)
	a.Event(ev(engine.TraceDecommission, 0, 6, ""))
	a.Event(ev(engine.TraceScaleUp, 0, 9, ""))
	a.ExecutorEpoch(0, 1)
	a.SlotLaunched(0, 0)
	a.SlotReleased(0, 0)
	wantClean(t, a)
}

func TestRuleShuffleExactlyOnce(t *testing.T) {
	a := fresh(1)
	a.ShuffleRegistered(0, 0, 3, 0, engine.ShuffleAccepted)
	a.ShuffleRegistered(0, 0, 3, 1, engine.ShuffleAccepted)
	wantRule(t, a, "shuffle-exactly-once")

	a = fresh(1)
	a.ShuffleRegistered(0, 0, 3, 0, engine.ShuffleDuplicate)
	wantRule(t, a, "shuffle-exactly-once")

	a = fresh(1)
	a.ShuffleRegistered(0, 0, 3, 0, engine.ShuffleRecovered)
	wantRule(t, a, "shuffle-exactly-once")

	// The legal recovery cycle.
	a = fresh(1)
	a.ShuffleRegistered(0, 0, 3, 0, engine.ShuffleAccepted)
	a.ShuffleRegistered(0, 0, 3, 0, engine.ShuffleDuplicate)
	a.ShuffleNodeLost(0)
	a.ShuffleRegistered(0, 0, 3, 1, engine.ShuffleRecovered)
	a.ShuffleRegistered(0, 0, 3, 1, engine.ShuffleDuplicate)
	wantClean(t, a)
}

func TestRuleByteConservation(t *testing.T) {
	a := fresh(1)
	a.TaskAccepted(0, job.TaskMetrics{DiskReadBytes: 100, NetBytes: 40})
	a.TaskAccepted(0, job.TaskMetrics{DiskReadBytes: 50})
	rep := &engine.JobReport{ID: 0, DiskReadBytes: 150, NetBytes: 40}
	a.JobFinished(rep)
	wantClean(t, a)

	a = fresh(1)
	a.TaskAccepted(0, job.TaskMetrics{DiskReadBytes: 100})
	a.JobFinished(&engine.JobReport{ID: 0, DiskReadBytes: 90})
	wantRule(t, a, "byte-conservation")
}

func TestFlagAndViolationCap(t *testing.T) {
	a := fresh(1)
	a.Flag("expect:max_runtime_sec", "observed 12, threshold 10")
	wantRule(t, a, "expect:max_runtime_sec")
	if v := a.Violations()[0]; v.Offset != -1 || v.Exec != -1 {
		t.Fatalf("flagged violation should carry no trace location: %+v", v)
	}

	for i := 0; i < maxViolations+10; i++ {
		a.SlotReleased(0, 0)
	}
	if n := len(a.Violations()); n != maxViolations {
		t.Fatalf("recorded %d violations, cap is %d", n, maxViolations)
	}
	if a.Dropped() == 0 {
		t.Fatal("dropped counter did not advance past the cap")
	}
}

// TestHooksSteadyStateAllocFree pins what the auditor costs per event once a
// run is under way: an event of a type already covered spells out no
// "event:<type>" signal, and a shuffle registration over a task the ledger
// covers (a duplicate verdict, a recovery) writes a record in place. A whole
// second run of the same shape allocates nothing either: its stages register
// into the ledgers the first run left as spares. The coverage the hunter keeps
// corpus entries by must not notice: every type seen is in it, once, over
// several runs of one auditor.
func TestHooksSteadyStateAllocFree(t *testing.T) {
	a := fresh(2)
	launch, end := ev(engine.TraceTaskLaunch, 0, 1, ""), ev(engine.TraceTaskEnd, 1, 2, "")
	a.Event(launch)
	a.Event(end)
	a.ShuffleRegistered(0, 0, 3, 0, engine.ShuffleAccepted)
	if n := testing.AllocsPerRun(200, func() {
		a.Event(launch)
		a.Event(end)
		a.SlotLaunched(0, 0)
		a.SlotReleased(0, 0)
		a.ShuffleRegistered(0, 0, 3, 1, engine.ShuffleDuplicate)
		a.ShuffleNodeLost(0)
		a.ShuffleRegistered(0, 0, 3, 0, engine.ShuffleRecovered)
	}); n != 0 {
		t.Fatalf("the hooks allocate %v objects per round in steady state, want 0", n)
	}
	wantClean(t, a)
	a.BeginRun([]bool{true})
	a.Event(launch)
	a.Event(ev(engine.TraceStageStart, -1, 3, ""))
	want := []string{"event:" + engine.TraceStageStart, "event:" + engine.TraceTaskEnd, "event:" + engine.TraceTaskLaunch,
		"shuffle:accepted", "shuffle:duplicate", "shuffle:node-lost", "shuffle:recovered", "slot:launch", "slot:release"}
	if got := a.Coverage(); !reflect.DeepEqual(got, want) {
		t.Fatalf("coverage = %v, want %v", got, want)
	}

	// A run of three jobs on four executors: stages of 8, 64 and 200 map
	// tasks registering in ascending, descending and interleaved order, the
	// duplicates of a speculation loser, a node loss and its recoveries. Job 0
	// finishes mid-run, so job 2 registers into its ledgers; job 1 never
	// finishes (a failed job gets no JobFinished) and BeginRun reclaims it.
	active := []bool{true, true, true, true}
	widths := []int{8, 64, 200}
	run := func() {
		a.BeginRun(active)
		for jobID := 0; jobID < 3; jobID++ {
			for stage, n := range widths {
				for i := 0; i < n; i++ {
					task := i
					switch stage {
					case 1:
						task = n - 1 - i
					case 2:
						task = (i * 7) % n
					}
					a.ShuffleRegistered(jobID, stage, task, task%4, engine.ShuffleAccepted)
					a.ShuffleRegistered(jobID, stage, task, (task+1)%4, engine.ShuffleDuplicate)
					a.TaskAccepted(jobID, job.TaskMetrics{NetBytes: 1})
				}
			}
			a.ShuffleNodeLost(jobID)
			for stage, n := range widths {
				for task := jobID; task < n; task += 4 {
					a.ShuffleRegistered(jobID, stage, task, (jobID+1)%4, engine.ShuffleRecovered)
				}
			}
			if jobID == 0 {
				a.JobFinished(&engine.JobReport{ID: 0, NetBytes: 272})
			}
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("a second run of the same shape allocates %v objects, want 0", n)
	}
	wantClean(t, a)
}
