package core

import (
	"fmt"

	"sae/internal/engine/job"
)

// AIMD is a TCP-style alternative to the paper's doubling hill climb:
// additive increase (+Step threads) while the congestion index improves or
// holds, multiplicative decrease (halve) when it worsens — and, unlike the
// paper's controller, it never freezes: it keeps oscillating around the
// optimum for the whole stage. Included as an ablation of the paper's
// freeze-after-rollback design: AIMD tracks environment drift but pays a
// permanent oscillation cost and converges far more slowly from cmin
// (+Step per interval instead of ×2).
type AIMD struct {
	// Cmin is the starting pool size (0 selects 2).
	Cmin int
	// Step is the additive increase (0 selects 2).
	Step int
	// Tolerance is the relative ζ degradation tolerated before a
	// multiplicative decrease (0 selects 0.10).
	Tolerance float64
}

// Name implements job.Policy.
func (AIMD) Name() string { return "aimd" }

// InitialThreads implements job.Policy.
func (a AIMD) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return a.planner().start(exec.MaxThreads)
}

// NewController implements job.Policy.
func (a AIMD) NewController(exec job.ExecutorInfo) job.Controller {
	return newLoop(a.planner(), exec, 0)
}

func (a AIMD) planner() aimd {
	return aimd{cmin: orDefault(a.Cmin, 2), step: orDefault(a.Step, 2), tol: orDefault(a.Tolerance, 0.10)}
}

var _ job.Policy = AIMD{}

type aimd struct {
	cmin, step int
	tol        float64
}

func (a aimd) start(cmax int) int { return clamp(a.cmin, 1, cmax) }

func (a aimd) signal(s sample) float64 { return congestion(s.Interval) }

func (a aimd) plan(k *knowledge, cmax int, s sample, sig float64) (int, bool, string) {
	next := k.threads / 2
	if k.first || s.Bytes == 0 || sig < k.prevSignal*(1+a.tol) {
		next = k.threads + a.step
	}
	next = clamp(next, a.cmin, cmax)
	return next, false, fmt.Sprintf("AIMD %d→%d (ζ=%.4g)", k.threads, next, sig)
}
