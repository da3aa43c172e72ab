package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"sae/internal/engine"
	"sae/internal/exp"
	"sae/internal/workloads"
)

// TenantCell is one (mix, scheduler, policy) cell of a tenant matrix.
type TenantCell struct {
	Mix, Sched, Policy string
	// Reports are the per-job reports in submission order.
	Reports []*engine.JobReport
}

// TenantResult is a tenant matrix: mixes of concurrent jobs on one shared
// engine per cell, under every inter-job scheduler × executor sizing
// policy. It extends the paper's single-tenant evaluation to the
// shared-cluster setting the DAG scheduler enables: does self-adaptive
// sizing still pay off when jobs compete for the same executors, and what
// does fair sharing cost or buy on top of it?
type TenantResult struct {
	Cells []TenantCell
}

// jobSecs derives a cell's rendered columns: each job's runtime in
// submission order, the makespan and the mean job runtime.
func (c TenantCell) jobSecs() (secs []float64, makespan, mean float64) {
	var sum float64
	for _, rep := range c.Reports {
		sec := rep.Runtime.Seconds()
		secs = append(secs, sec)
		sum += sec
		// All jobs are submitted at t=0, so the makespan is the slowest
		// job's runtime.
		makespan = max(makespan, sec)
	}
	return secs, makespan, sum / float64(len(c.Reports))
}

func (r *TenantResult) table() *exp.Table {
	joinSecs := func(sep string, format func(float64) string) func(v any) string {
		return func(v any) string {
			var jobs []string
			for _, s := range v.([]float64) {
				jobs = append(jobs, format(s))
			}
			return strings.Join(jobs, sep)
		}
	}
	t := &exp.Table{
		Title: "Multi-tenant — concurrent job mixes × inter-job scheduler × sizing policy",
		Name:  "multitenant",
		Columns: []exp.Column{
			{Key: "mix", Head: "mix", HeadFmt: "%-22s", CellFmt: "%-22s"},
			{Key: "sched", Head: "sched", HeadFmt: "%-5s", CellFmt: "%-5s"},
			{Key: "policy", Head: "policy", HeadFmt: "%-16s", CellFmt: "%-16s"},
			{Key: "makespan_sec", Head: "makespan", HeadFmt: "%9s", CellFmt: "%8.1fs"},
			{Key: "mean_job_sec", Head: "mean-job", HeadFmt: "%9s", CellFmt: "%8.1fs"},
			{Key: "job_secs", Head: "per-job", HeadFmt: " %s", CellFmt: " [%s]",
				Text: joinSecs(" ", func(s float64) string { return fmt.Sprintf("%.1f", s) }),
				CSV:  joinSecs(";", ftoa)},
		},
	}
	for _, c := range r.Cells {
		secs, makespan, mean := c.jobSecs()
		t.Rows = append(t.Rows, []any{c.Mix, c.Sched, c.Policy, makespan, mean, secs})
	}
	return t
}

func (r *TenantResult) String() string { return r.table().String() }

// CSVTables implements exp.Tabular.
func (r *TenantResult) CSVTables() map[string][][]string { return r.table().CSVTables() }

// compileTenantMatrix runs each workload mix under every inter-job
// scheduler × sizing policy, one shared engine per cell, the cells side by
// side (exp.Each).
func (c *Compiled) compileTenantMatrix() error {
	sp, s := c.Spec, c.Setup
	cfg := c.workloadConfig()
	for _, mix := range sp.Mixes {
		if _, err := mixWorkloads(mix, cfg); err != nil {
			return err
		}
	}
	// One setup per scheduler, its registry a copy of the caller's with
	// scheduler.mode set: every cell of the scheduler reads it.
	modes := make([]string, len(sp.Schedulers))
	setups := make([]exp.Setup, len(sp.Schedulers))
	for i, name := range sp.Schedulers {
		var ok bool
		if modes[i], ok = schedulerModes[name]; !ok {
			return fmt.Errorf("unknown scheduler %q (want fifo or fair)", name)
		}
		setups[i] = withScheduler(s, modes[i])
	}
	policies, err := policiesByName(sp.Policies)
	if err != nil {
		return err
	}
	c.run = func() (fmt.Stringer, error) {
		perMix := len(modes) * len(policies)
		cells, err := exp.Each(s, len(sp.Mixes)*perMix, func(cs exp.Setup, k int) (TenantCell, error) {
			mix, i, pol := sp.Mixes[k/perMix], k%perMix/len(policies), policies[k%len(policies)]
			// Fresh workload specs per run, so concurrent cells never share
			// mutable state; the names resolved at compile.
			ws, _ := mixWorkloads(mix, cfg)
			reps, err := setups[i].WithSinks(cs).RunMulti(ws, pol)
			if err != nil {
				return TenantCell{}, fmt.Errorf("%s %s/%s/%s: %w", sp.Name, mix.Name, modes[i], pol.Name(), err)
			}
			return TenantCell{Mix: mix.Name, Sched: modes[i], Policy: pol.Name(), Reports: reps}, nil
		})
		if err != nil {
			return nil, err
		}
		return &TenantResult{Cells: cells}, nil
	}
	return nil
}

// schedulerModes maps a tenant matrix's scheduler names to the
// scheduler.mode value each selects.
var schedulerModes = map[string]string{"fifo": "FIFO", "FIFO": "FIFO", "fair": "FAIR", "FAIR": "FAIR"}

func mixWorkloads(mix MixSpec, cfg workloads.Config) ([]*workloads.Spec, error) {
	ws := make([]*workloads.Spec, len(mix.Workloads))
	for i, name := range mix.Workloads {
		var err error
		if ws[i], err = workloads.ByName(name, cfg); err != nil {
			return nil, fmt.Errorf("mix %s: %w", mix.Name, err)
		}
	}
	return ws, nil
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
