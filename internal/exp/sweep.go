package exp

import (
	"fmt"
	"slices"
	"strings"

	"sae/internal/core"
	"sae/internal/engine"
	"sae/internal/workloads"
)

// SweepThreads is the static solution's parameter grid (Figs. 2, 4, 10).
var SweepThreads = []int{32, 16, 8, 4, 2}

// SweepResult holds a static thread-count sweep over one workload: one run
// per grid point plus, from StaticSweep, the composed BestFit run.
type SweepResult struct {
	App string
	// Threads[i] corresponds to Runs[i].
	Threads []int
	Runs    []*engine.JobReport
	// Default is the stock-Spark run (all cores, also for non-I/O
	// stages; identical to the 32-thread static run on a 32-core node).
	Default *engine.JobReport
	// BestFitThreads is the per-stage winner of the sweep (I/O-marked
	// stages only — the static solution cannot touch the others), and
	// BestFit the composed run using it; both nil from widthSweep.
	BestFitThreads map[int]int
	BestFit        *engine.JobReport
}

// StaticSweep runs workload w with each static thread setting (widthSweep),
// derives the hypothetical per-stage BestFit combination, and runs it.
func StaticSweep(s Setup, mk func(workloads.Config) *workloads.Spec) (*SweepResult, error) {
	res, err := widthSweep(s, mk)
	if err != nil {
		return nil, err
	}
	w := mk(s.workloadConfig())
	// Compose BestFit: for each I/O-marked stage pick the sweep winner.
	res.BestFitThreads = map[int]int{}
	for si := range res.Default.Stages {
		if !w.Job.Stages[si].IOMarked() {
			continue
		}
		best, bestSec := SweepThreads[0], res.Runs[0].Stages[si].Duration().Seconds()
		for i, th := range res.Threads {
			if sec := res.Runs[i].Stages[si].Duration().Seconds(); sec < bestSec {
				best, bestSec = th, sec
			}
		}
		res.BestFitThreads[si] = best
	}
	rep, err := s.Run(w, core.BestFit{Threads: res.BestFitThreads}, nil)
	if err != nil {
		return nil, fmt.Errorf("sweep %s bestfit: %w", res.App, err)
	}
	res.BestFit = rep
	return res, nil
}

// widthSweep runs workload w with each static thread setting, side by side
// (Each): a SweepResult without BestFit, for the figures that read only the
// widths (5 and 7).
func widthSweep(s Setup, mk func(workloads.Config) *workloads.Spec) (*SweepResult, error) {
	cfg := s.workloadConfig()
	app := mk(cfg).Name
	runs, err := Each(s, len(SweepThreads), func(s Setup, i int) (*engine.JobReport, error) {
		rep, err := s.Run(mk(cfg), core.Static{IOThreads: SweepThreads[i]}, nil)
		if err != nil {
			return nil, fmt.Errorf("sweep %s threads=%d: %w", app, SweepThreads[i], err)
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	// static-32 == default on 32-core nodes
	return &SweepResult{App: app, Threads: slices.Clone(SweepThreads), Runs: runs, Default: runs[0]}, nil
}

// String renders the sweep as a per-stage runtime table (the bars of
// Figs. 2/4/10).
func (r *SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — static sweep (per-stage runtime, seconds)\n", r.App)
	fmt.Fprintf(&b, "%-10s", "threads")
	for si := range r.Default.Stages {
		fmt.Fprintf(&b, "  stage%-2d", si)
	}
	fmt.Fprintf(&b, "  %8s\n", "total")
	for i, th := range r.Threads {
		fmt.Fprintf(&b, "%-10d", th)
		for _, st := range r.Runs[i].Stages {
			fmt.Fprintf(&b, " %8.1f", st.Duration().Seconds())
		}
		fmt.Fprintf(&b, "  %8.1f\n", r.Runs[i].Runtime.Seconds())
	}
	fmt.Fprintf(&b, "%-10s", "bestfit")
	for _, st := range r.BestFit.Stages {
		fmt.Fprintf(&b, " %8.1f", st.Duration().Seconds())
	}
	fmt.Fprintf(&b, "  %8.1f  (I/O stages at %v)\n", r.BestFit.Runtime.Seconds(), r.BestFitThreads)
	return b.String()
}
