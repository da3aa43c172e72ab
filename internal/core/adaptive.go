package core

import (
	"fmt"

	"sae/internal/engine/job"
)

// Adaptive is the one shape of an adaptive policy: a name, a planner and a
// re-probe count, run on loop. Dynamic is the paper's; the ablation
// constructors (ablation.go) return one too.
type Adaptive struct {
	name string
	p    planner
	// reprobe re-opens a frozen climb after this many completions (0 =
	// never); see Dynamic.
	reprobe int
}

// Name implements job.Policy.
func (a Adaptive) Name() string { return a.name }

// InitialThreads implements job.Policy.
func (a Adaptive) InitialThreads(exec job.ExecutorInfo, _ job.StageMeta) int {
	return a.p.start(exec.MaxThreads)
}

// NewController implements job.Policy.
func (a Adaptive) NewController(exec job.ExecutorInfo) job.Controller {
	return newLoop(a.p, exec, a.reprobe)
}

var _ job.Policy = Adaptive{}

// Dynamic is the paper's self-adaptive executor (§5): the MAPE-K loop of
// loop.go with the paper's planner.
//
// [A]nalyze  — at interval end the congestion index ζ_j (the paper's ε_j/µ_j,
// computed as duration / tasks / µ: see congestion in loop.go) is compared
// against the previous interval's ζ_{j/2}. Lower congestion means the extra
// threads paid off.
//
// [P]lan     — hill-climbing over pool sizes: start at cmin and double while
// congestion keeps falling, capped at cmax (the executor's virtual cores).
// On the first worsening, roll back to the previous size and freeze until
// the stage ends — if j threads lose to j/2, 2j would only contend more.
// The 10% margin (grow while ζ_j < ζ_{j/2}·1.1) keeps CPU-dominated stages,
// whose ζ is flat in the thread count, climbing instead of freezing on noise.
//
// cmin is the hill-climb starting point (paper: 2 — a single thread almost
// never wins); zero or below selects 2. reprobeTasks re-opens the climb from
// cmin after this many completions in the frozen state (0 = never, the
// paper's behaviour). This is the extension the paper's outlook motivates:
// in dynamic environments (cloud co-location, background interference) "an
// ideal state at one time is not guaranteed to be the same at another" (L4).
func Dynamic(cmin, reprobeTasks int) Adaptive {
	if cmin <= 0 {
		cmin = 2
	}
	name := "dynamic"
	if cmin != 2 {
		name = fmt.Sprintf("dynamic-cmin%d", cmin)
	}
	if reprobeTasks > 0 {
		name += "-reprobe"
	}
	return Adaptive{name: name, p: climb{cmin: cmin, margin: 0.10}, reprobe: reprobeTasks}
}

// DefaultDynamic returns the paper's configuration.
func DefaultDynamic() Adaptive { return Dynamic(2, 0) }

// climb is the hill-climbing planner behind Dynamic and three of its
// ablations (ablation.go): double while the signal improves, step back and
// freeze when it worsens, freeze on reaching the bound.
type climb struct {
	cmin int
	// margin is the relative ζ degradation still counted as an
	// improvement, or (util) the absolute utilization gain required.
	margin float64
	down   bool // Descending: start at cmax and halve towards cmin
	stay   bool // NoRollback: freeze at the worsened size
	util   bool // UtilizationDriven: maximize disk utilization, not 1/ζ
}

func (c climb) start(cmax int) int {
	if c.down {
		return cmax
	}
	return clamp(c.cmin, 1, cmax)
}

func (c climb) signal(s sample) float64 {
	if c.util {
		return s.busy
	}
	return congestion(s.Interval)
}

// improved reports whether the closed interval beats the previous one.
// Intervals that moved no data at all carry no congestion signal; treat them
// as improvements so pure-CPU stages climb to the full core count, matching
// stock Spark's CPU-bound assumption. (Stages with any I/O are judged by ζ
// directly: on CPU-dominated stages throughput scales with the pool, so ζ
// falls and the climb continues anyway — e.g. the paper's Aggregation scan
// stage ends at 128/128.)
func (c climb) improved(k *knowledge, s sample, sig float64) bool {
	if c.util {
		// §5.2's point: near the saturation plateau utilization cannot
		// tell good from bad.
		return sig >= k.prevSignal+c.margin
	}
	if s.Bytes == 0 && k.prev.Bytes == 0 {
		return true
	}
	return sig < k.prevSignal*(1+c.margin)
}

func (c climb) plan(k *knowledge, cmax int, s sample, sig float64) (int, bool, string) {
	sym, what := "ζ", "congestion"
	if c.util {
		sym, what = "util", "utilization"
	}
	next, back := k.threads*2, k.threads/2
	bound, atBound := "cmax", k.threads >= cmax
	if c.down {
		next, back = back, next
		bound, atBound = "cmin", k.threads <= c.cmin
	}
	switch {
	case !k.first && !c.improved(k, s, sig):
		if c.stay {
			return k.threads, true, fmt.Sprintf("%s worsened %.4g → %.4g; freeze without rollback", sym, k.prevSignal, sig)
		}
		// Roll back: if j threads lose to j/2, 2j would only make the
		// contention worse (§5.2).
		return clamp(back, c.cmin, cmax), true, fmt.Sprintf("%s worsened %.4g → %.4g; rollback and freeze", sym, k.prevSignal, sig)
	case atBound && k.first:
		return k.threads, true, "started at " + bound
	case atBound:
		return k.threads, true, "reached " + bound + " with improving " + what
	case k.first:
		return clamp(next, c.cmin, cmax), false, fmt.Sprintf("first interval, %s=%.4g", sym, sig)
	default:
		return clamp(next, c.cmin, cmax), false, fmt.Sprintf("%s improved %.4g → %.4g", sym, k.prevSignal, sig)
	}
}
