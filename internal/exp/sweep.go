package exp

import (
	"fmt"
	"strings"

	"sae/internal/core"
	"sae/internal/workloads"
)

// SweepThreads is the static solution's parameter grid (Figs. 2, 4, 10).
var SweepThreads = []int{32, 16, 8, 4, 2}

// SweepResult holds a static thread-count sweep over one workload: one run
// per grid point plus the composed BestFit run.
type SweepResult struct {
	App string
	// Threads[i] corresponds to Runs[i].
	Threads []int
	Runs    []RunStat
	// Default is the stock-Spark run (all cores, also for non-I/O
	// stages; identical to the 32-thread static run on a 32-core node).
	Default RunStat
	// BestFitThreads is the per-stage winner of the sweep (I/O-marked
	// stages only — the static solution cannot touch the others).
	BestFitThreads map[int]int
	// BestFit is the composed run using BestFitThreads.
	BestFit RunStat
}

// StaticSweep runs workload w with each static thread setting, derives the
// hypothetical per-stage BestFit combination, and runs it.
func StaticSweep(s Setup, make func(workloads.Config) *workloads.Spec) (*SweepResult, error) {
	cfg := s.workloadConfig()
	res := &SweepResult{App: make(cfg).Name}
	for _, th := range SweepThreads {
		rep, err := s.Run(make(cfg), core.Static{IOThreads: th}, nil)
		if err != nil {
			return nil, fmt.Errorf("sweep %s threads=%d: %w", res.App, th, err)
		}
		res.Threads = append(res.Threads, th)
		res.Runs = append(res.Runs, summarize(rep))
	}
	res.Default = res.Runs[0] // static-32 == default on 32-core nodes

	// Compose BestFit: for each I/O-marked stage pick the sweep winner.
	res.BestFitThreads = map[int]int{}
	for si := range res.Default.Stages {
		spec := make(cfg).Job.Stages[si]
		if !spec.IOMarked() {
			continue
		}
		best, bestSec := SweepThreads[0], res.Runs[0].Stages[si].Seconds
		for i, th := range res.Threads {
			if sec := res.Runs[i].Stages[si].Seconds; sec < bestSec {
				best, bestSec = th, sec
			}
		}
		res.BestFitThreads[si] = best
	}
	rep, err := s.Run(make(cfg), core.BestFit{Threads: res.BestFitThreads}, nil)
	if err != nil {
		return nil, fmt.Errorf("sweep %s bestfit: %w", res.App, err)
	}
	res.BestFit = summarize(rep)
	return res, nil
}

// StageSeconds returns the per-stage runtimes of the run at grid point i.
func (r *SweepResult) StageSeconds(i int) []float64 {
	out := make([]float64, len(r.Runs[i].Stages))
	for si, st := range r.Runs[i].Stages {
		out[si] = st.Seconds
	}
	return out
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
			fmt.Fprintf(&b, " %8.1f", st.Seconds)
		}
		fmt.Fprintf(&b, "  %8.1f\n", r.Runs[i].Seconds)
	}
	fmt.Fprintf(&b, "%-10s", "bestfit")
	for _, st := range r.BestFit.Stages {
		fmt.Fprintf(&b, " %8.1f", st.Seconds)
	}
	fmt.Fprintf(&b, "  %8.1f  (I/O stages at %v)\n", r.BestFit.Seconds, r.BestFitThreads)
	return b.String()
}
