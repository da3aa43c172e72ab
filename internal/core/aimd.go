package core

import (
	"fmt"

	"sae/internal/engine/job"
)

// AIMD is a TCP-style alternative to the paper's doubling hill climb:
// additive increase (+2 threads) while the congestion index improves or
// holds within Dynamic's tolerance, multiplicative decrease (halve) when it
// worsens — and, unlike the paper's controller, it never freezes: it keeps
// oscillating around the optimum for the whole stage. Included as an
// ablation of the paper's freeze-after-rollback design: AIMD tracks
// environment drift but pays a permanent oscillation cost and converges far
// more slowly from cmin = 2 (+2 per interval instead of ×2).
type AIMD struct{}

// Name implements job.Policy.
func (AIMD) Name() string { return "aimd" }

// InitialThreads implements job.Policy.
func (AIMD) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return additive.start(exec.MaxThreads)
}

// NewController implements job.Policy.
func (AIMD) NewController(exec job.ExecutorInfo) job.Controller {
	return newLoop(additive, exec, 0)
}

var additive = aimd{cmin: 2, step: 2, tol: 0.10}

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
