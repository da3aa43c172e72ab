package core

// Ablation variants of the self-adaptive executor, quantifying the design
// choices the paper argues for in §5.2. Each is Dynamic's climb planner with
// one switch flipped:
//
//   - Descending: start the hill climb at cmax and halve, instead of
//     ascending from cmin. The paper rejects this because the scheduler has
//     already filled cmax slots (halving queues tasks) and a bad cmax start
//     is very expensive — this variant lets the claim be measured.
//   - NoRollback: keep the worsened pool size instead of rolling back one
//     rung, isolating the value of the rollback step.
//   - UtilizationDriven: analyze disk utilization (iostat %util) instead of
//     ζ = ε/µ. The paper argues utilization cannot discriminate between
//     near-saturated settings (Fig. 5a: all ≥91%); this controller
//     demonstrates the consequence.

import "sae/internal/engine/job"

// Descending is the top-down ablation of Dynamic: start at cmax, halve
// while the congestion index improves, roll back (double) and freeze once
// it worsens.
type Descending struct {
	// Cmin bounds the descent (0 selects 2, as in Dynamic).
	Cmin int
	// Tolerance is the relative ζ degradation tolerated before the
	// rollback, as in Dynamic (0 selects 0.10).
	Tolerance float64
}

// Name implements job.Policy.
func (Descending) Name() string { return "dynamic-descending" }

// InitialThreads implements job.Policy.
func (d Descending) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return d.planner().start(exec.MaxThreads)
}

// NewController implements job.Policy.
func (d Descending) NewController(exec job.ExecutorInfo) job.Controller {
	return newLoop(d.planner(), exec, 0)
}

func (d Descending) planner() climb {
	return climb{cmin: orDefault(d.Cmin, 2), margin: orDefault(d.Tolerance, 0.10), down: true}
}

var _ job.Policy = Descending{}

// NoRollback ablates the rollback step: on a worsened interval the
// controller freezes at the worsened size instead of stepping back.
type NoRollback struct {
	Cmin      int
	Tolerance float64
}

// Name implements job.Policy.
func (NoRollback) Name() string { return "dynamic-no-rollback" }

// InitialThreads implements job.Policy.
func (n NoRollback) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return n.planner().start(exec.MaxThreads)
}

// NewController implements job.Policy.
func (n NoRollback) NewController(exec job.ExecutorInfo) job.Controller {
	return newLoop(n.planner(), exec, 0)
}

func (n NoRollback) planner() climb {
	return climb{cmin: orDefault(n.Cmin, 2), margin: orDefault(n.Tolerance, 0.10), stay: true}
}

var _ job.Policy = NoRollback{}

// UtilizationDriven hill-climbs on average disk utilization instead of the
// congestion index: grow while utilization keeps rising meaningfully.
type UtilizationDriven struct {
	Cmin int
	// MinGain is the utilization improvement (in percentage points /
	// 100) required to keep growing; 0 selects 0.01.
	MinGain float64
}

// Name implements job.Policy.
func (UtilizationDriven) Name() string { return "utilization-driven" }

// InitialThreads implements job.Policy.
func (u UtilizationDriven) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return u.planner().start(exec.MaxThreads)
}

// NewController implements job.Policy.
func (u UtilizationDriven) NewController(exec job.ExecutorInfo) job.Controller {
	return newLoop(u.planner(), exec, 0)
}

func (u UtilizationDriven) planner() climb {
	return climb{cmin: orDefault(u.Cmin, 2), margin: orDefault(u.MinGain, 0.01), util: true}
}

var _ job.Policy = UtilizationDriven{}
