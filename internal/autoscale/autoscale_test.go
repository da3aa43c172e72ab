package autoscale

import (
	"testing"
	"time"
)

func TestStatic(t *testing.T) {
	got, _ := Static{}.Target(Snapshot{ActiveNodes: 4, PendingNodes: 2, QueuedTasks: 1000})
	if got != 6 {
		t.Fatalf("static target = %d, want 6", got)
	}
}

func TestReactiveScaleUpOnUtilization(t *testing.T) {
	r := DefaultReactive()
	s := Snapshot{ActiveNodes: 4, TotalSlots: 16, BusySlots: 16}
	got, reason := r.Target(s)
	if got != 5 {
		t.Fatalf("target = %d (%s), want 5", got, reason)
	}
}

func TestReactiveScaleUpOnQueueBacklog(t *testing.T) {
	r := DefaultReactive()
	// Low utilization but a deep queue (tasks arrived faster than slots
	// could report busy): the backlog watermark must still trigger.
	s := Snapshot{ActiveNodes: 4, TotalSlots: 16, BusySlots: 4, QueuedTasks: 100}
	got, _ := r.Target(s)
	if got != 5 {
		t.Fatalf("target = %d, want 5", got)
	}
}

func TestReactiveScaleDown(t *testing.T) {
	r := DefaultReactive()
	s := Snapshot{ActiveNodes: 4, TotalSlots: 16, BusySlots: 2}
	got, _ := r.Target(s)
	if got != 3 {
		t.Fatalf("target = %d, want 3", got)
	}
}

func TestReactiveHoldsWithQueuedJobs(t *testing.T) {
	r := DefaultReactive()
	// Idle slots but jobs waiting for admission: do not shrink into a
	// backlog that has not materialized as tasks yet.
	s := Snapshot{ActiveNodes: 4, TotalSlots: 16, BusySlots: 1, QueuedJobs: 3}
	got, _ := r.Target(s)
	if got != 4 {
		t.Fatalf("target = %d, want 4 (hold)", got)
	}
}

func TestReactiveCountsPending(t *testing.T) {
	r := DefaultReactive()
	s := Snapshot{ActiveNodes: 4, PendingNodes: 2, TotalSlots: 16, BusySlots: 16}
	got, _ := r.Target(s)
	if got != 7 {
		t.Fatalf("target = %d, want 7 (pending nodes count toward current)", got)
	}
}

// newAdaptive returns a planner with the settings these tests were
// calibrated against.
func newAdaptive() *Adaptive {
	return &Adaptive{Alpha: 0.3, DrainTarget: 2 * time.Minute, Headroom: 1.2, MinSamplePeriod: 5 * time.Second}
}

// feed advances the adaptive planner through one tick.
func feed(a *Adaptive, at time.Duration, s Snapshot) (int, string) {
	s.Now = at
	return a.Target(s)
}

func TestAdaptiveEstimatesCapacityAndPlans(t *testing.T) {
	a := newAdaptive()
	// Priming tick.
	if got, _ := feed(a, 0, Snapshot{ActiveNodes: 2}); got != 2 {
		t.Fatalf("priming target = %d, want 2", got)
	}
	// 60 tasks complete in 30s on 2 nodes → µ = 1 task/s/node.
	got, _ := feed(a, 30*time.Second, Snapshot{ActiveNodes: 2, CompletedTasks: 60})
	if a.Capacity() != 1 {
		t.Fatalf("µ = %v, want 1", a.Capacity())
	}
	// Demand = 2 tasks/s (no backlog) × 1.2 headroom ÷ 1 = ⌈2.4⌉ = 3.
	if got != 3 {
		t.Fatalf("target = %d, want 3", got)
	}
	// Same throughput plus a 240-task backlog: +240/120s = 2 tasks/s more
	// demand → ⌈(2+2)·1.2⌉ = 5.
	got, _ = feed(a, 60*time.Second, Snapshot{ActiveNodes: 2, CompletedTasks: 120, QueuedTasks: 240})
	if got != 5 {
		t.Fatalf("target with backlog = %d, want 5", got)
	}
}

func TestAdaptiveScaleDownWhenIdle(t *testing.T) {
	a := newAdaptive()
	feed(a, 0, Snapshot{ActiveNodes: 8})
	feed(a, 30*time.Second, Snapshot{ActiveNodes: 8, CompletedTasks: 240}) // µ = 1
	// Load drops to 0.5 tasks/s total with no backlog: ⌈0.5·1.2⌉ = 1.
	got, _ := feed(a, 90*time.Second, Snapshot{ActiveNodes: 8, CompletedTasks: 270})
	if got != 1 {
		t.Fatalf("idle target = %d, want 1", got)
	}
}

func TestAdaptiveGrowsWithoutEstimateWhenBacklogged(t *testing.T) {
	a := newAdaptive()
	feed(a, 0, Snapshot{ActiveNodes: 1})
	// No completions yet but tasks queued: must grow rather than hold at a
	// size that may never complete anything.
	got, reason := feed(a, 30*time.Second, Snapshot{ActiveNodes: 1, QueuedTasks: 50})
	if got != 2 {
		t.Fatalf("target = %d (%s), want 2", got, reason)
	}
}

func TestAdaptiveShortTickHolds(t *testing.T) {
	a := newAdaptive()
	feed(a, 0, Snapshot{ActiveNodes: 4})
	got, _ := feed(a, time.Second, Snapshot{ActiveNodes: 4, CompletedTasks: 1000})
	if got != 4 {
		t.Fatalf("short-tick target = %d, want 4 (hold)", got)
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	run := func() []int {
		a := newAdaptive()
		var out []int
		snaps := []Snapshot{
			{ActiveNodes: 2},
			{ActiveNodes: 2, CompletedTasks: 40, QueuedTasks: 10},
			{ActiveNodes: 3, CompletedTasks: 100, QueuedTasks: 80},
			{ActiveNodes: 5, CompletedTasks: 300},
		}
		for i, s := range snaps {
			got, _ := feed(a, time.Duration(i)*30*time.Second, s)
			out = append(out, got)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestUtilizationEmpty(t *testing.T) {
	if (Snapshot{}).Utilization() != 0 {
		t.Fatal("zero-slot snapshot should have zero utilization")
	}
}
