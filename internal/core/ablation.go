package core

// Ablation variants of the self-adaptive executor, quantifying the design
// choices the paper argues for in §5.2. Each is one planner value run on the
// MAPE-K loop, so a new ablation row is one constructor:
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
//   - AIMD: additive increase, multiplicative decrease, and no freeze.

import "sae/internal/engine/job"

// Descending is the top-down ablation of Dynamic: start at cmax, halve
// while the congestion index improves, roll back (double) and freeze once
// it worsens, with Dynamic's cmin and 10% margin.
func Descending() Adaptive {
	return Adaptive{name: "dynamic-descending", p: climb{cmin: 2, margin: 0.10, down: true}}
}

// NoRollback ablates the rollback step: on a worsened interval the
// controller freezes at the worsened size instead of stepping back.
func NoRollback() Adaptive {
	return Adaptive{name: "dynamic-no-rollback", p: climb{cmin: 2, margin: 0.10, stay: true}}
}

// UtilizationDriven hill-climbs on average disk utilization instead of the
// congestion index: grow while utilization rises by at least one percentage
// point per interval.
func UtilizationDriven() Adaptive {
	return Adaptive{name: "utilization-driven", p: climb{cmin: 2, margin: 0.01, util: true}}
}

// AIMD is a TCP-style alternative to the paper's doubling hill climb:
// additive increase (+2 threads) while the congestion index improves or
// holds within Dynamic's 10% margin, multiplicative decrease (halve) when it
// worsens — and, unlike the paper's controller, it never freezes: it keeps
// oscillating around the optimum for the whole stage. Included as an
// ablation of the paper's freeze-after-rollback design: AIMD tracks
// environment drift but pays a permanent oscillation cost and converges far
// more slowly from cmin = 2 (+2 per interval instead of ×2).
func AIMD() Adaptive {
	return Adaptive{name: "aimd", p: aimd{cmin: 2, step: 2, tol: 0.10}}
}

type aimd struct {
	cmin, step int
	tol        float64
}

func (a aimd) start(cmax int) int { return clamp(a.cmin, 1, cmax) }

func (a aimd) signal(s sample) float64 { return congestion(s.Interval) }

func (a aimd) plan(k *knowledge, cmax int, s sample, sig float64) (int, bool, job.Verdict) {
	next := k.threads / 2
	if k.first || s.Bytes == 0 || sig < k.prevSignal*(1+a.tol) {
		next = k.threads + a.step
	}
	return clamp(next, a.cmin, cmax), false, job.Verdict{Prev: k.prevSignal, Signal: sig, From: int32(k.threads), Action: job.ActAIMD}
}
