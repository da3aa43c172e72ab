package sae

import (
	"fmt"
	"strings"

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

// experiments is the per-experiment index in presentation order: the
// tables, the figures in numeric order, then the extensions alphabetically.
var experiments = []Experiment{
	{
		ID: "table1", Title: "Functional parameters by category",
		Run: func(Setup) (fmt.Stringer, error) { return exp.Table1(), nil },
	},
	{
		ID: "table2", Title: "I/O activity relative to input size",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Table2(s) },
	},
	{
		ID: "fig1", Title: "Per-stage CPU usage and disk I/O wait",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure1(s) },
	},
	{
		ID: "fig2", Title: "Static sweep: Terasort and PageRank",
		Run: func(s Setup) (fmt.Stringer, error) {
			ts, pr, err := exp.Figure2(s)
			if err != nil {
				return nil, err
			}
			return multiResult{ts, pr}, nil
		},
	},
	{
		ID: "fig3", Title: "Per-node I/O variability (44 nodes)",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure3(s) },
	},
	{
		ID: "fig4", Title: "Static sweep: SQL applications",
		Run: func(s Setup) (fmt.Stringer, error) {
			agg, join, err := exp.Figure4(s)
			if err != nil {
				return nil, err
			}
			return multiResult{agg, join}, nil
		},
	},
	{
		ID: "fig5", Title: "Disk utilization across thread counts",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure5(s) },
	},
	{
		ID: "fig6", Title: "Dynamic thread selection per executor",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure6(s) },
	},
	{
		ID: "fig7", Title: "ε, µ and ζ vs thread count",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure7(s) },
	},
	{
		ID: "fig8", Title: "Default vs static-BestFit vs dynamic",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure8(s) },
	},
	{
		ID: "fig9", Title: "Terasort scalability (4 vs 16 nodes)",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure9(s) },
	},
	{
		ID: "fig10", Title: "Static sweep on HDD vs SSD",
		Run: func(s Setup) (fmt.Stringer, error) {
			hdd, ssd, err := exp.Figure10(s)
			if err != nil {
				return nil, err
			}
			return multiResult{hdd, ssd}, nil
		},
	},
	{
		ID: "fig11", Title: "Dynamic solution on SSDs",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure11(s) },
	},
	{
		ID: "fig12", Title: "I/O throughput time series (HDD vs SSD)",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Figure12(s) },
	},
	{
		ID: "ablation", Title: "Controller design-choice ablations (§5.2)",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Ablation(s) },
	},
	{
		ID: "autoscale", Title: "Open-loop arrivals under static vs elastic provisioning (elasticity extension)",
		Run: runSpec("autoscale"),
	},
	{
		ID: "faults", Title: "Terasort under chaos schedules (fault-tolerance extension)",
		Run: runSpec("faults"),
	},
	{
		ID: "grayfail", Title: "Terasort under gray failures — slow node, partition, corrupt replicas (robustness extension)",
		Run: runSpec("grayfail"),
	},
	{
		ID: "interference", Title: "Co-located tenant mid-run (L4 / outlook extension)",
		Run: func(s Setup) (fmt.Stringer, error) { return exp.Interference(s) },
	},
	{
		ID: "multitenant", Title: "Concurrent job mixes under FIFO/FAIR (multi-tenancy extension)",
		Run: runSpec("multitenant"),
	},
}

// Experiments returns the full per-experiment index, keyed by ID
// ("table1", "table2", "fig1" … "fig12").
func Experiments() map[string]Experiment {
	m := make(map[string]Experiment, len(experiments))
	for _, e := range experiments {
		m[e.ID] = e
	}
	return m
}

// ExperimentIDs lists valid experiment IDs in presentation order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
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
