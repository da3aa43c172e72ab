package core

import (
	"testing"

	"sae/internal/engine/job"
)

func TestDescendingStartsAtCmax(t *testing.T) {
	p := Descending()
	c := p.NewController(testExec)
	if got := c.StageStart(meta(0, 100, true)); got != 32 {
		t.Fatalf("initial threads = %d, want cmax 32", got)
	}
	if p.InitialThreads(testExec, meta(0, 100, true)) != 32 {
		t.Fatal("InitialThreads mismatch")
	}
}

func TestDescendingHalvesWhileImproving(t *testing.T) {
	c := Descending().NewController(testExec)
	c.StageStart(meta(0, 10000, true))
	seq := 0
	// First interval (32 tasks): halve unconditionally.
	if got := feed(c, 0, 32, 900, 1<<20, &seq); got != 16 {
		t.Fatalf("after first interval threads = %d, want 16", got)
	}
	// Better congestion → halve again.
	if got := feed(c, 0, 16, 300, 4<<20, &seq); got != 8 {
		t.Fatalf("threads = %d, want 8", got)
	}
	// Worse → roll back up and freeze.
	if got := feed(c, 0, 8, 900, 1<<19, &seq); got != 16 {
		t.Fatalf("threads = %d, want rollback to 16", got)
	}
	if got := feed(c, 0, 50, 1, 100<<20, &seq); got != 16 {
		t.Fatalf("frozen controller moved to %d", got)
	}
}

func TestDescendingStopsAtCmin(t *testing.T) {
	c := Descending().NewController(job.ExecutorInfo{MaxThreads: 4})
	c.StageStart(meta(0, 10000, true))
	seq := 0
	feed(c, 0, 4, 900, 1<<20, &seq) // 4 → 2
	got := feed(c, 0, 2, 100, 8<<20, &seq)
	if got != 2 {
		t.Fatalf("threads = %d, want floor at cmin 2", got)
	}
}

func TestNoRollbackFreezesInPlace(t *testing.T) {
	c := NoRollback().NewController(testExec)
	c.StageStart(meta(0, 10000, true))
	seq := 0
	feed(c, 0, 2, 300, 4<<20, &seq) // → 4
	// Worse interval: freeze AT 4, not back to 2.
	if got := feed(c, 0, 4, 900, 1<<19, &seq); got != 4 {
		t.Fatalf("threads = %d, want frozen at 4", got)
	}
	if got := feed(c, 0, 20, 1, 100<<20, &seq); got != 4 {
		t.Fatalf("moved after freeze: %d", got)
	}
}

func TestUtilizationDrivenGrowsOnUtilization(t *testing.T) {
	c := UtilizationDriven().NewController(testExec)
	c.StageStart(meta(0, 10000, true))
	seq := 0
	mk := func(util float64) job.TaskMetrics {
		m := tm(0, seq, 100, 1<<20)
		m.DiskBusyFrac = util
		seq++
		return m
	}
	// Rising utilization: grow.
	var threads int
	for i := 0; i < 2; i++ {
		threads, _ = c.TaskDone(mk(0.40))
	}
	if threads != 4 {
		t.Fatalf("threads = %d, want 4", threads)
	}
	for i := 0; i < 4; i++ {
		threads, _ = c.TaskDone(mk(0.70))
	}
	if threads != 8 {
		t.Fatalf("threads = %d, want 8", threads)
	}
	// Plateaued utilization (the paper's indistinguishable top): stop.
	for i := 0; i < 8; i++ {
		threads, _ = c.TaskDone(mk(0.705))
	}
	if threads != 4 {
		t.Fatalf("threads = %d, want halved to 4 on plateau", threads)
	}
}

func TestAblationPolicyNames(t *testing.T) {
	if Descending().Name() != "dynamic-descending" {
		t.Error("descending name")
	}
	if NoRollback().Name() != "dynamic-no-rollback" {
		t.Error("no-rollback name")
	}
	if UtilizationDriven().Name() != "utilization-driven" {
		t.Error("utilization name")
	}
	if Dynamic(1, 0).Name() != "dynamic-cmin1" {
		t.Error("cmin1 name")
	}
	if Dynamic(2, 0).Name() != "dynamic" {
		t.Error("cmin2 should be plain dynamic")
	}
}

func TestAIMDAdditiveIncrease(t *testing.T) {
	c := AIMD().NewController(testExec)
	c.StageStart(meta(0, 100000, true))
	seq := 0
	// Improving: +2 per interval.
	if got := feed(c, 0, 2, 100, 4<<20, &seq); got != 4 {
		t.Fatalf("threads = %d, want 4", got)
	}
	if got := feed(c, 0, 4, 90, 4<<20, &seq); got != 6 {
		t.Fatalf("threads = %d, want additive 6", got)
	}
	if got := feed(c, 0, 6, 80, 4<<20, &seq); got != 8 {
		t.Fatalf("threads = %d, want 8", got)
	}
}

func TestAIMDMultiplicativeDecrease(t *testing.T) {
	c := AIMD().NewController(testExec)
	c.StageStart(meta(0, 100000, true))
	seq := 0
	feed(c, 0, 2, 100, 4<<20, &seq) // → 4
	feed(c, 0, 4, 90, 4<<20, &seq)  // → 6
	// Much worse: halve to 3.
	if got := feed(c, 0, 6, 900, 1<<19, &seq); got != 3 {
		t.Fatalf("threads = %d, want halved 3", got)
	}
	// AIMD never freezes — it grows again on improvement.
	if got := feed(c, 0, 3, 50, 8<<20, &seq); got != 5 {
		t.Fatalf("threads = %d, want 5 (no freeze)", got)
	}
}

func TestAIMDBounds(t *testing.T) {
	c := newLoop(aimd{cmin: 2, step: 16, tol: 0.10}, job.ExecutorInfo{MaxThreads: 8}, 0)
	c.StageStart(meta(0, 100000, true))
	seq := 0
	if got := feed(c, 0, 2, 1, 1<<20, &seq); got != 8 {
		t.Fatalf("threads = %d, want capped at cmax 8", got)
	}
}
