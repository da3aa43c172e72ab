package core

import (
	"testing"
	"time"

	"sae/internal/engine/job"
)

var testExec = job.ExecutorInfo{ID: 0, Node: 0, MaxThreads: 32}

func meta(id int, tasks int, io bool) job.StageMeta {
	return job.StageMeta{ID: id, Name: "s", NumTasks: tasks, IOMarked: io}
}

// tm builds a task completion with the given blocked fraction of a 1-second
// task that moved the given bytes.
func tm(stage int, seq int, blockedMS int, bytes int64) job.TaskMetrics {
	start := time.Duration(seq) * time.Second
	return job.TaskMetrics{
		Stage:      stage,
		Index:      seq,
		Start:      start,
		End:        start + time.Second,
		BlockedIO:  time.Duration(blockedMS) * time.Millisecond,
		BytesMoved: bytes,
	}
}

// feed completes n tasks with identical characteristics and returns the
// last returned thread count.
func feed(c job.Controller, stage, n int, blockedMS int, bytes int64, seq *int) int {
	threads := 0
	for i := 0; i < n; i++ {
		threads, _ = c.TaskDone(tm(stage, *seq, blockedMS, bytes))
		*seq++
	}
	return threads
}

func TestDynamicStartsAtCmin(t *testing.T) {
	c := DefaultDynamic().NewController(testExec)
	if got := c.StageStart(meta(0, 100, true)); got != 2 {
		t.Fatalf("initial threads = %d, want 2", got)
	}
}

func TestDynamicDoublesAfterFirstInterval(t *testing.T) {
	c := DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 100, true))
	seq := 0
	// First interval: 2 tasks complete → double to 4 unconditionally.
	if got := feed(c, 0, 2, 500, 1<<20, &seq); got != 4 {
		t.Fatalf("after first interval threads = %d, want 4", got)
	}
}

func TestDynamicGrowsWhileCongestionImproves(t *testing.T) {
	c := DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 1000, true))
	seq := 0
	feed(c, 0, 2, 500, 1<<20, &seq) // I2 → 4
	// I4: 4 tasks with much lower per-task congestion → 8.
	if got := feed(c, 0, 4, 300, 2<<20, &seq); got != 8 {
		t.Fatalf("threads = %d, want 8", got)
	}
	// I8: still better → 16.
	if got := feed(c, 0, 8, 200, 3<<20, &seq); got != 16 {
		t.Fatalf("threads = %d, want 16", got)
	}
}

func TestDynamicRollsBackOnWorseCongestion(t *testing.T) {
	c := DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 1000, true))
	seq := 0
	feed(c, 0, 2, 300, 4<<20, &seq) // I2 → 4
	// I4: per-task blocked way up, bytes down → congestion worsened →
	// rollback to 2 and freeze.
	if got := feed(c, 0, 4, 900, 1<<20, &seq); got != 2 {
		t.Fatalf("threads after worse interval = %d, want rollback to 2", got)
	}
	// Frozen: further completions change nothing.
	if got := feed(c, 0, 20, 1, 100<<20, &seq); got != 2 {
		t.Fatalf("frozen controller moved to %d", got)
	}
}

func TestDynamicCapsAtCmax(t *testing.T) {
	c := DefaultDynamic().NewController(job.ExecutorInfo{MaxThreads: 8})
	c.StageStart(meta(0, 1000, true))
	seq := 0
	feed(c, 0, 2, 500, 1<<20, &seq)        // → 4
	feed(c, 0, 4, 300, 2<<20, &seq)        // → 8
	got := feed(c, 0, 8, 100, 4<<20, &seq) // improving at cmax → stay
	if got != 8 {
		t.Fatalf("threads = %d, want capped 8", got)
	}
	if got := feed(c, 0, 8, 1, 100<<20, &seq); got != 8 {
		t.Fatalf("locked at cmax but moved to %d", got)
	}
}

func TestDynamicCPUBoundClimbsToMax(t *testing.T) {
	// Tasks that move bytes but barely block: no congestion signal, so
	// the controller should keep climbing to cmax like stock Spark.
	c := DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 10000, false))
	seq := 0
	threads := 2
	for threads < 32 {
		got := feed(c, 0, threads, 1, 1<<20, &seq)
		if got <= threads {
			t.Fatalf("CPU-bound stage stuck at %d threads", got)
		}
		threads = got
	}
}

func TestDynamicZeroByteTasksClimb(t *testing.T) {
	// Pure-CPU tasks (no I/O at all) must also climb.
	c := DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 10000, false))
	seq := 0
	feed(c, 0, 2, 0, 0, &seq)
	got := feed(c, 0, 4, 0, 0, &seq)
	if got != 8 {
		t.Fatalf("threads = %d, want 8", got)
	}
}

func TestDynamicResetsPerStage(t *testing.T) {
	c := DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 1000, true))
	seq := 0
	feed(c, 0, 2, 300, 4<<20, &seq)
	feed(c, 0, 4, 900, 1<<20, &seq) // rollback + freeze at 2
	// New stage: descend to cmin again and re-adapt.
	if got := c.StageStart(meta(1, 1000, false)); got != 2 {
		t.Fatalf("stage restart threads = %d, want 2", got)
	}
	if got := feed(c, 1, 2, 500, 1<<20, &seq); got != 4 {
		t.Fatalf("threads after new stage first interval = %d, want 4", got)
	}
}

func TestDynamicIgnoresStaleStageCompletions(t *testing.T) {
	c := DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 1000, true))
	seq := 0
	feed(c, 0, 1, 500, 1<<20, &seq)
	c.StageStart(meta(1, 1000, true))
	// A straggler from stage 0 completes during stage 1.
	threads, changed := c.TaskDone(tm(0, seq, 500, 1<<20))
	if changed || threads != 2 {
		t.Fatalf("stale completion changed threads to %d", threads)
	}
}

func TestDynamicDecisionLog(t *testing.T) {
	c := DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 1000, true))
	seq := 0
	feed(c, 0, 2, 300, 4<<20, &seq)
	feed(c, 0, 4, 900, 1<<20, &seq)
	ds := c.Decisions()
	if len(ds) != 2 {
		t.Fatalf("decisions = %d, want 2", len(ds))
	}
	if ds[0].Threads != 4 || ds[1].Threads != 2 {
		t.Fatalf("decision threads = %d,%d want 4,2", ds[0].Threads, ds[1].Threads)
	}
	if ds[1].Interval.Tasks != 4 {
		t.Fatalf("second interval tasks = %d, want 4", ds[1].Interval.Tasks)
	}
}

func TestDynamicShortStageNeverCompletesInterval(t *testing.T) {
	// A stage with a single task can never close the 2-task interval;
	// the controller must simply stay at cmin without misbehaving.
	c := DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 1, true))
	threads, changed := c.TaskDone(tm(0, 0, 500, 1<<20))
	if changed || threads != 2 {
		t.Fatalf("single-task stage moved threads to %d", threads)
	}
}

func TestDefaultPolicy(t *testing.T) {
	p := Default{}
	c := p.NewController(testExec)
	if got := c.StageStart(meta(0, 10, true)); got != 32 {
		t.Fatalf("default threads = %d, want 32", got)
	}
	if got, changed := c.TaskDone(tm(0, 0, 900, 1)); changed || got != 32 {
		t.Fatalf("default adapted to %d", got)
	}
	if p.InitialThreads(testExec, meta(0, 10, true)) != 32 {
		t.Fatal("InitialThreads mismatch")
	}
}

func TestStaticPolicyMarkedVsUnmarked(t *testing.T) {
	p := Static{IOThreads: 8}
	c := p.NewController(testExec)
	if got := c.StageStart(meta(0, 10, true)); got != 8 {
		t.Fatalf("I/O stage threads = %d, want 8", got)
	}
	if got := c.StageStart(meta(1, 10, false)); got != 32 {
		t.Fatalf("compute stage threads = %d, want 32", got)
	}
	if p.InitialThreads(testExec, meta(0, 10, true)) != 8 {
		t.Fatal("InitialThreads mismatch for I/O stage")
	}
}

func TestStaticClampsToCores(t *testing.T) {
	p := Static{IOThreads: 64}
	if got := p.InitialThreads(job.ExecutorInfo{MaxThreads: 32}, meta(0, 1, true)); got != 32 {
		t.Fatalf("threads = %d, want clamped 32", got)
	}
}

func TestBestFitPerStage(t *testing.T) {
	p := BestFit{Threads: map[int]int{0: 4, 2: 8}}
	c := p.NewController(testExec)
	if got := c.StageStart(meta(0, 10, true)); got != 4 {
		t.Fatalf("stage 0 threads = %d, want 4", got)
	}
	if got := c.StageStart(meta(1, 10, false)); got != 32 {
		t.Fatalf("stage 1 threads = %d, want default 32", got)
	}
	if got := c.StageStart(meta(2, 10, true)); got != 8 {
		t.Fatalf("stage 2 threads = %d, want 8", got)
	}
	if p.Name() != "static-bestfit" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestPolicyNames(t *testing.T) {
	if (Default{}).Name() != "default" {
		t.Fatal("default name")
	}
	if (Static{IOThreads: 8}).Name() != "static-8" {
		t.Fatal("static name")
	}
	if Dynamic(0, 0).Name() != "dynamic" {
		t.Fatal("dynamic name")
	}
	if (BestFit{}).Name() != "static-bestfit" {
		t.Fatal("bestfit name")
	}
}

// Property-ish check: thread counts stay within [cmin, cmax] and on the
// doubling ladder under arbitrary measurement sequences.
func TestDynamicLadderInvariant(t *testing.T) {
	c := DefaultDynamic().NewController(testExec)
	c.StageStart(meta(0, 100000, true))
	seq := 0
	valid := map[int]bool{2: true, 4: true, 8: true, 16: true, 32: true}
	for i := 0; i < 5000; i++ {
		blocked := (i * 37) % 1000
		bytes := int64((i*13)%50) << 20
		threads, _ := c.TaskDone(tm(0, seq, blocked, bytes))
		seq++
		if !valid[threads] {
			t.Fatalf("threads %d off the doubling ladder", threads)
		}
	}
}
