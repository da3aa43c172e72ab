package sae

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sae/internal/exp"
	"sae/internal/scenario"
	"sae/scenarios"
)

// Experiment identifies one reproducible table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(Setup) (fmt.Stringer, error)
}

// multiResult adapts multi-part experiments to a single Stringer.
type multiResult []fmt.Stringer

func (m multiResult) String() string {
	var b strings.Builder
	for _, r := range m {
		b.WriteString(r.String())
	}
	return b.String()
}

// CSVTables implements exp.Tabular by merging the parts' tables.
func (m multiResult) CSVTables() map[string][][]string {
	out := map[string][][]string{}
	for _, r := range m {
		if tab, ok := r.(exp.Tabular); ok {
			for name, rows := range tab.CSVTables() {
				out[name] = rows
			}
		}
	}
	return out
}

// runSpec runs the embedded scenarios/<id>.yaml — the experiment's one
// definition — with the caller's setup in place of its cluster block.
func runSpec(id string) func(Setup) (fmt.Stringer, error) {
	return func(s Setup) (fmt.Stringer, error) {
		data, err := scenarios.FS.ReadFile(id + ".yaml")
		if err != nil {
			return nil, err
		}
		sp, err := scenario.Parse("scenarios/"+id+".yaml", data)
		if err != nil {
			return nil, err
		}
		c, err := sp.Compile(s)
		if err != nil {
			return nil, err
		}
		return c.Run()
	}
}

// Experiments returns the full per-experiment index, keyed by ID
// ("table1", "table2", "fig1" … "fig12").
func Experiments() map[string]Experiment {
	return map[string]Experiment{
		"table1": {
			ID: "table1", Title: "Functional parameters by category",
			Run: func(Setup) (fmt.Stringer, error) { return exp.Table1(), nil },
		},
		"table2": {
			ID: "table2", Title: "I/O activity relative to input size",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Table2(s) },
		},
		"fig1": {
			ID: "fig1", Title: "Per-stage CPU usage and disk I/O wait",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure1(s) },
		},
		"fig2": {
			ID: "fig2", Title: "Static sweep: Terasort and PageRank",
			Run: func(s Setup) (fmt.Stringer, error) {
				ts, pr, err := exp.Figure2(s)
				if err != nil {
					return nil, err
				}
				return multiResult{ts, pr}, nil
			},
		},
		"fig3": {
			ID: "fig3", Title: "Per-node I/O variability (44 nodes)",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure3(s) },
		},
		"fig4": {
			ID: "fig4", Title: "Static sweep: SQL applications",
			Run: func(s Setup) (fmt.Stringer, error) {
				agg, join, err := exp.Figure4(s)
				if err != nil {
					return nil, err
				}
				return multiResult{agg, join}, nil
			},
		},
		"fig5": {
			ID: "fig5", Title: "Disk utilization across thread counts",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure5(s) },
		},
		"fig6": {
			ID: "fig6", Title: "Dynamic thread selection per executor",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure6(s) },
		},
		"fig7": {
			ID: "fig7", Title: "ε, µ and ζ vs thread count",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure7(s) },
		},
		"fig8": {
			ID: "fig8", Title: "Default vs static-BestFit vs dynamic",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure8(s) },
		},
		"fig9": {
			ID: "fig9", Title: "Terasort scalability (4 vs 16 nodes)",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure9(s) },
		},
		"fig10": {
			ID: "fig10", Title: "Static sweep on HDD vs SSD",
			Run: func(s Setup) (fmt.Stringer, error) {
				hdd, ssd, err := exp.Figure10(s)
				if err != nil {
					return nil, err
				}
				return multiResult{hdd, ssd}, nil
			},
		},
		"fig11": {
			ID: "fig11", Title: "Dynamic solution on SSDs",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure11(s) },
		},
		"fig12": {
			ID: "fig12", Title: "I/O throughput time series (HDD vs SSD)",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure12(s) },
		},
		"ablation": {
			ID: "ablation", Title: "Controller design-choice ablations (§5.2)",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Ablation(s) },
		},
		"interference": {
			ID: "interference", Title: "Co-located tenant mid-run (L4 / outlook extension)",
			Run: func(s Setup) (fmt.Stringer, error) { return exp.Interference(s) },
		},
		"faults": {
			ID: "faults", Title: "Terasort under chaos schedules (fault-tolerance extension)",
			Run: runSpec("faults"),
		},
		"grayfail": {
			ID: "grayfail", Title: "Terasort under gray failures — slow node, partition, corrupt replicas (robustness extension)",
			Run: runSpec("grayfail"),
		},
		"multitenant": {
			ID: "multitenant", Title: "Concurrent job mixes under FIFO/FAIR (multi-tenancy extension)",
			Run: runSpec("multitenant"),
		},
		"autoscale": {
			ID: "autoscale", Title: "Open-loop arrivals under static vs elastic provisioning (elasticity extension)",
			Run: runSpec("autoscale"),
		},
	}
}

// ExperimentIDs lists valid experiment IDs in presentation order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Experiments()))
	for id := range Experiments() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		rank := func(s string) (int, int) {
			if strings.HasPrefix(s, "table") {
				return 0, int(s[len(s)-1] - '0')
			}
			if !strings.HasPrefix(s, "fig") {
				return 2, 0
			}
			var n int
			fmt.Sscanf(strings.TrimPrefix(s, "fig"), "%d", &n)
			return 1, n
		}
		ci, ni := rank(ids[i])
		cj, nj := rank(ids[j])
		if ci != cj {
			return ci < cj
		}
		if ni != nj {
			return ni < nj
		}
		// Extensions all rank equal: alphabetical keeps the listing
		// deterministic.
		return ids[i] < ids[j]
	})
	return ids
}

// RunExperiment runs one table/figure by ID and returns its printable
// result.
func RunExperiment(id string, s Setup) (fmt.Stringer, error) {
	e, ok := Experiments()[id]
	if !ok {
		return nil, fmt.Errorf("sae: unknown experiment %q (valid: %s)", id, strings.Join(ExperimentIDs(), ", "))
	}
	return e.Run(s)
}

// ExperimentResult is the outcome of one experiment in a sweep.
type ExperimentResult struct {
	ID     string
	Result fmt.Stringer
	Err    error
	// Wall is the host wall-clock time the experiment took.
	Wall time.Duration
}

// RunExperiments runs the given experiments, fanning the sweep out across up
// to parallel worker goroutines (<=1 runs sequentially). Every run builds
// its own kernel, cluster and engine from the shared (value-typed) Setup, so
// concurrent runs share no mutable state and the results — returned in the
// order the IDs were given, regardless of completion order — are identical
// to a sequential sweep. The shared sinks would be Setup.Trace and
// Setup.Metrics, so a non-nil Trace or Metrics forces sequential execution
// rather than interleaving output from concurrent runs.
func RunExperiments(ids []string, s Setup, parallel int) ([]ExperimentResult, error) {
	exps := Experiments()
	tasks := make([]exp.Task, len(ids))
	for i, id := range ids {
		e, ok := exps[id]
		if !ok {
			return nil, fmt.Errorf("sae: unknown experiment %q (valid: %s)", id, strings.Join(ExperimentIDs(), ", "))
		}
		run := e.Run
		tasks[i] = exp.Task{ID: id, Run: func() (fmt.Stringer, error) { return run(s) }}
	}
	if s.Trace != nil || s.Metrics != nil {
		parallel = 1
	}
	rs := exp.RunParallel(parallel, tasks)
	out := make([]ExperimentResult, len(rs))
	for i, r := range rs {
		out[i] = ExperimentResult{ID: r.ID, Result: r.Result, Err: r.Err, Wall: r.Wall}
	}
	return out, nil
}
