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
// it worsens, with Dynamic's cmin and tolerance.
type Descending struct{}

// Name implements job.Policy.
func (Descending) Name() string { return "dynamic-descending" }

// InitialThreads implements job.Policy.
func (Descending) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return descending.start(exec.MaxThreads)
}

// NewController implements job.Policy.
func (Descending) NewController(exec job.ExecutorInfo) job.Controller {
	return newLoop(descending, exec, 0)
}

var descending = climb{cmin: 2, margin: 0.10, down: true}

// NoRollback ablates the rollback step: on a worsened interval the
// controller freezes at the worsened size instead of stepping back.
type NoRollback struct{}

// Name implements job.Policy.
func (NoRollback) Name() string { return "dynamic-no-rollback" }

// InitialThreads implements job.Policy.
func (NoRollback) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return noRollback.start(exec.MaxThreads)
}

// NewController implements job.Policy.
func (NoRollback) NewController(exec job.ExecutorInfo) job.Controller {
	return newLoop(noRollback, exec, 0)
}

var noRollback = climb{cmin: 2, margin: 0.10, stay: true}

// UtilizationDriven hill-climbs on average disk utilization instead of the
// congestion index: grow while utilization rises by at least one percentage
// point per interval.
type UtilizationDriven struct{}

// Name implements job.Policy.
func (UtilizationDriven) Name() string { return "utilization-driven" }

// InitialThreads implements job.Policy.
func (UtilizationDriven) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return utilizationDriven.start(exec.MaxThreads)
}

// NewController implements job.Policy.
func (UtilizationDriven) NewController(exec job.ExecutorInfo) job.Controller {
	return newLoop(utilizationDriven, exec, 0)
}

var utilizationDriven = climb{cmin: 2, margin: 0.01, util: true}
