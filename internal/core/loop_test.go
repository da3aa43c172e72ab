package core

import (
	"strings"
	"testing"

	"sae/internal/engine/job"
)

// planned runs a planner at settings no exported policy offers, the way the
// adaptive policies run theirs.
type planned struct {
	name string
	p    planner
}

func (pp planned) Name() string { return pp.name }

func (pp planned) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return pp.p.start(exec.MaxThreads)
}

func (pp planned) NewController(exec job.ExecutorInfo) job.Controller {
	return newLoop(pp.p, exec, 0)
}

// TestInitialThreadsMatchesStageStart enforces job.Policy's contract: the
// driver sizes its slot table from InitialThreads before the executor's
// controller answers StageStart, so the two must agree for every policy.
func TestInitialThreadsMatchesStageStart(t *testing.T) {
	policies := []job.Policy{
		Default{},
		Static{IOThreads: 4},
		BestFit{Threads: map[int]int{0: 3, 2: 64}},
		DefaultDynamic(),
		Dynamic{Cmin: 5, ReprobeTasks: 10},
		Descending{},
		NoRollback{},
		UtilizationDriven{},
		AIMD{},
		planned{"no-rollback-cmin1", climb{cmin: 1, margin: 0.10, stay: true}},
		planned{"aimd-cmin3", aimd{cmin: 3, step: 2, tol: 0.10}},
	}
	for _, p := range policies {
		for _, cmax := range []int{1, 2, 3, 4, 8, 32, 128} {
			exec := job.ExecutorInfo{ID: 1, Node: 1, MaxThreads: cmax}
			c := p.NewController(exec)
			for stage := 0; stage < 4; stage++ {
				m := meta(stage, 100, stage%2 == 0)
				want := p.InitialThreads(exec, m)
				if got := c.StageStart(m); got != want {
					t.Errorf("%s cmax=%d stage %d: StageStart = %d, InitialThreads = %d", p.Name(), cmax, stage, got, want)
				}
				// Move the controller off its starting size so the
				// next StageStart has something to reset.
				seq := 0
				feed(c, stage, 2*cmax+2, 100, 1<<20, &seq)
			}
		}
	}
}

// TestDynamicReprobe covers Dynamic.ReprobeTasks: a frozen climb re-opens
// from cmin after that many completions, reports the restart as a resize,
// and then measures only tasks that started after it.
func TestDynamicReprobe(t *testing.T) {
	c := Dynamic{ReprobeTasks: 5}.NewController(testExec)
	c.StageStart(meta(0, 1000, true))
	seq := 0
	feed(c, 0, 2, 300, 4<<20, &seq) // I2 → 4
	if got := feed(c, 0, 4, 900, 1<<20, &seq); got != 2 {
		t.Fatalf("threads after worse interval = %d, want rollback to 2", got)
	}
	straggler := tm(0, seq-1, 100, 1<<20) // started before the re-probe
	for i := 0; i < 4; i++ {
		if got, changed := c.TaskDone(tm(0, seq, 1, 100<<20)); got != 2 || changed {
			t.Fatalf("frozen completion %d: (%d, %v), want (2, false)", i, got, changed)
		}
		seq++
	}
	// The fifth frozen completion restarts the climb. The pool is already
	// at cmin; a restart is reported as a change regardless (pinned by
	// testdata/controllers.golden).
	got, changed := c.TaskDone(tm(0, seq, 1, 100<<20))
	seq++
	if got != 2 || !changed {
		t.Fatalf("re-probe: (%d, %v), want (2, true)", got, changed)
	}
	ds := c.Decisions()
	if last := ds[len(ds)-1]; !strings.HasPrefix(last.Reason, "re-probe") || last.Threads != 2 || last.Interval.Tasks != 0 {
		t.Fatalf("re-probe decision = %+v", last)
	}
	if got, changed := c.TaskDone(straggler); got != 2 || changed {
		t.Fatalf("straggler from before the re-probe was counted: (%d, %v)", got, changed)
	}
	// A fresh first interval doubles unconditionally, then the climb
	// continues on improving congestion: the loop is live again.
	if got := feed(c, 0, 2, 900, 1<<20, &seq); got != 4 {
		t.Fatalf("first interval after re-probe: threads = %d, want 4", got)
	}
	if got := feed(c, 0, 4, 300, 4<<20, &seq); got != 8 {
		t.Fatalf("second interval after re-probe: threads = %d, want 8", got)
	}
	// Without ReprobeTasks the same history stays frozen for good.
	c = DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 1000, true))
	seq = 0
	feed(c, 0, 2, 300, 4<<20, &seq)
	feed(c, 0, 4, 900, 1<<20, &seq)
	if got := feed(c, 0, 50, 1, 100<<20, &seq); got != 2 {
		t.Fatalf("paper configuration re-probed: threads = %d", got)
	}
}

// TestAblationDecisionsKeepBothSignals pins the shape the NoRollback and
// UtilizationDriven logs were normalised to: one decision per interval,
// carrying the action, the resulting thread count and both signal values.
func TestAblationDecisionsKeepBothSignals(t *testing.T) {
	c := NoRollback{}.NewController(testExec)
	c.StageStart(meta(0, 1000, true))
	seq := 0
	feed(c, 0, 2, 300, 4<<20, &seq)
	feed(c, 0, 4, 900, 1<<19, &seq)
	ds := c.Decisions()
	if len(ds) != 2 || ds[1].Threads != 4 || ds[1].Interval.Tasks != 4 {
		t.Fatalf("no-rollback decisions = %+v", ds)
	}
	if r := ds[1].Reason; !strings.HasPrefix(r, "ζ worsened ") || !strings.Contains(r, " → ") || !strings.HasSuffix(r, "freeze without rollback") {
		t.Fatalf("no-rollback reason = %q", r)
	}

	c = UtilizationDriven{}.NewController(testExec)
	c.StageStart(meta(0, 1000, true))
	for _, util := range []float64{0.4, 0.4, 0.7, 0.7, 0.7, 0.7} {
		m := tm(0, seq, 100, 1<<20)
		m.DiskBusyFrac = util
		c.TaskDone(m)
		seq++
	}
	ds = c.Decisions()
	if len(ds) != 2 || ds[0].Threads != 4 || ds[1].Threads != 8 {
		t.Fatalf("utilization decisions = %+v", ds)
	}
	if ds[0].Reason != "first interval, util=0.4" || ds[1].Reason != "util improved 0.4 → 0.7" {
		t.Fatalf("utilization reasons = %q, %q", ds[0].Reason, ds[1].Reason)
	}
}
