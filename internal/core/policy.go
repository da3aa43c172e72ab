// Package core implements the paper's contribution: thread-pool sizing
// policies for big-data executors.
//
//   - Default reproduces stock Spark: one worker thread per virtual core,
//     fixed for the whole application.
//   - Static is §4's solution: stages structurally marked as I/O (they read
//     from or write to the DFS) run with a user-chosen thread count, all
//     other stages with the default.
//   - BestFit fixes a per-stage thread count, used to realize the paper's
//     hypothetical "static BestFit" composed from per-stage sweep optima.
//   - Dynamic builds §5's self-adaptive executor: a MAPE-K feedback loop per
//     executor that monitors epoll-wait time (ε) and I/O throughput (µ),
//     analyzes the congestion index ζ = ε/µ, and hill-climbs the pool size
//     from cmin upward by doubling, rolling back one step the moment
//     congestion worsens.
//
// Every adaptive policy, the paper's and its §5.2 ablations alike, is an
// Adaptive value: a name, a planner and a re-probe count run on one loop, so
// a new controller is one constructor.
package core

import (
	"fmt"

	"sae/internal/engine/job"
)

// Default is stock Spark behaviour: the pool always has MaxThreads (= one
// thread per virtual core) threads.
type Default struct{}

// Name implements job.Policy.
func (Default) Name() string { return "default" }

// InitialThreads implements job.Policy.
func (Default) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return exec.MaxThreads
}

// NewController implements job.Policy.
func (Default) NewController(exec job.ExecutorInfo) job.Controller {
	return &fixedController{p: Default{}, exec: exec}
}

var _ job.Policy = Default{}

// Static is the paper's §4 solution: a single operator-chosen thread count
// for all structurally I/O-marked stages; the default everywhere else. Its
// five limitations (L1–L5) motivate Dynamic.
type Static struct {
	// IOThreads is the user-supplied thread count for I/O stages.
	IOThreads int
}

// Name implements job.Policy.
func (s Static) Name() string { return fmt.Sprintf("static-%d", s.IOThreads) }

// InitialThreads implements job.Policy.
func (s Static) InitialThreads(exec job.ExecutorInfo, meta job.StageMeta) int {
	if meta.IOMarked && s.IOThreads > 0 {
		return clamp(s.IOThreads, 1, exec.MaxThreads)
	}
	return exec.MaxThreads
}

// NewController implements job.Policy.
func (s Static) NewController(exec job.ExecutorInfo) job.Controller {
	return &fixedController{p: s, exec: exec}
}

var _ job.Policy = Static{}

// BestFit pins an explicit thread count per stage ID (stages absent from the
// map use the default). The experiment harness composes it from the
// per-stage optima of a static sweep, realizing the paper's "static BestFit"
// comparison bars.
type BestFit struct {
	// Threads maps stage ID to thread count.
	Threads map[int]int
}

// Name implements job.Policy.
func (BestFit) Name() string { return "static-bestfit" }

// InitialThreads implements job.Policy.
func (b BestFit) InitialThreads(exec job.ExecutorInfo, meta job.StageMeta) int {
	if t, ok := b.Threads[meta.ID]; ok && t > 0 {
		return clamp(t, 1, exec.MaxThreads)
	}
	return exec.MaxThreads
}

// NewController implements job.Policy.
func (b BestFit) NewController(exec job.ExecutorInfo) job.Controller {
	return &fixedController{p: b, exec: exec}
}

var _ job.Policy = BestFit{}

// fixedController sizes every stage by its policy's InitialThreads, so the
// two cannot disagree, and never adapts.
type fixedController struct {
	p       job.Policy
	exec    job.ExecutorInfo
	threads int
}

func (c *fixedController) StageStart(meta job.StageMeta) int {
	c.threads = c.p.InitialThreads(c.exec, meta)
	return c.threads
}

func (c *fixedController) TaskDone(job.TaskMetrics) (int, bool) { return c.threads, false }

func (c *fixedController) Decisions() []job.Decision { return nil }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
