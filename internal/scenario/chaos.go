package scenario

import (
	"fmt"
	"slices"

	"sae/internal/chaos"
	"sae/internal/engine"
	"sae/internal/exp"
	"sae/internal/workloads"
)

// ChaosCell is one (policy, schedule) cell of a chaos matrix.
type ChaosCell struct {
	Policy, Schedule string
	// Quiet is the policy's calibration run; Report the run under the
	// schedule (the quiet report itself for the quiet schedule).
	Quiet, Report *engine.JobReport
}

// DegradedPct is the cell's runtime increase over its policy's quiet run.
func (c ChaosCell) DegradedPct() float64 {
	if c.Quiet.Runtime <= 0 {
		return 0
	}
	return 100 * (c.Report.Runtime.Seconds() - c.Quiet.Runtime.Seconds()) / c.Quiet.Runtime.Seconds()
}

// ChaosResult is a chaos matrix — one workload under every sizing policy ×
// chaos schedule — rendered by the preset the spec's report value names.
// "faults" asks whether the adaptive sizing machinery survives fail-stop
// crashes, crash-restarts and transient I/O faults, and how much of its
// advantage survives a degraded run; "grayfail" asks the same of failures
// that degrade rather than kill — a slow node, a partition that drops
// heartbeats while tasks keep running, silently corrupted replicas — and
// whether the detector's false positives stay fenced, bounded fetch retries
// absorb the partition and checksum failover routes around rot.
type ChaosResult struct {
	Cells  []ChaosCell
	preset chaosPreset
}

// chaosPreset is one report of the chaos matrix: a title, a CSV name, the
// columns after the four every preset leads with, and the row function
// that fills them from a cell's report.
type chaosPreset struct {
	title, name string
	columns     []exp.Column
	row         func(*engine.JobReport) []any
}

// chaosColumns lead every preset: the cell, its runtime and its
// degradation.
var chaosColumns = []exp.Column{
	{Key: "policy", Head: "policy", HeadFmt: "%-16s", CellFmt: "%-16s"},
	{Key: "schedule", Head: "schedule", HeadFmt: "%-22s", CellFmt: "%-22s"},
	{Key: "seconds", Head: "runtime", HeadFmt: "%9s", CellFmt: "%8.1fs"},
	{Key: "degraded_pct", Head: "degraded", HeadFmt: "%9s", CellFmt: "%+8.1f%%"},
}

var chaosPresets = map[string]chaosPreset{
	"faults": {
		title: "Faults — Terasort under deterministic chaos schedules",
		name:  "faults",
		columns: []exp.Column{
			{Key: "lost_executors", Head: "lost", HeadFmt: "%5s", CellFmt: "%5d"},
			{Key: "resubmitted_stages", Head: "resub", HeadFmt: "%7s", CellFmt: "%7d"},
			{Key: "requeued", Head: "requeue", HeadFmt: "%7s", CellFmt: "%7d"},
			{Key: "retries", Head: "retries", HeadFmt: "%7s", CellFmt: "%7d"},
			{Key: "recovered_gib", Head: "recovered", HeadFmt: "%9s", CellFmt: "%8.2fG"},
		},
		row: func(rep *engine.JobReport) []any {
			var requeued, retries int
			for _, st := range rep.Stages {
				requeued += st.Requeued
				retries += st.Retries
			}
			return []any{rep.LostExecutors, rep.ResubmittedStages, requeued, retries, workloads.GiB(rep.RecoveredBytes)}
		},
	},
	"grayfail": {
		title: "GrayFail — Terasort under gray failures (slow node, partition, corrupt replicas)",
		name:  "grayfail",
		columns: []exp.Column{
			{Key: "suspected", Head: "suspect", HeadFmt: "%7s", CellFmt: "%7d"},
			{Key: "fenced", Head: "fenced", HeadFmt: "%6s", CellFmt: "%6d"},
			{Key: "lost_executors", Head: "lost", HeadFmt: "%5s", CellFmt: "%5d"},
			{Key: "fetch_retries", Head: "fetchRT", HeadFmt: "%7s", CellFmt: "%7d"},
			{Key: "checksum_failovers", Head: "ckFailovr", HeadFmt: "%9s", CellFmt: "%9d"},
		},
		row: func(rep *engine.JobReport) []any {
			return []any{rep.Suspected, rep.Fenced, rep.LostExecutors, rep.FetchRetries, rep.ChecksumFailovers}
		},
	},
}

func (r *ChaosResult) table() *exp.Table {
	t := &exp.Table{Title: r.preset.title, Name: r.preset.name, Columns: slices.Concat(chaosColumns, r.preset.columns)}
	for _, c := range r.Cells {
		row := []any{c.Policy, c.Schedule, c.Report.Runtime.Seconds(), c.DegradedPct()}
		t.Rows = append(t.Rows, append(row, r.preset.row(c.Report)...))
	}
	return t
}

func (r *ChaosResult) String() string { return r.table().String() }

// CSVTables implements exp.Tabular.
func (r *ChaosResult) CSVTables() map[string][][]string { return r.table().CSVTables() }

// compileChaosMatrix runs the workload under each policy × schedule. Per
// policy a quiet calibration run executes first and fixes the schedule
// times: percentage clauses resolve against its runtime, and an empty
// schedule reuses it without re-executing.
func (c *Compiled) compileChaosMatrix() error {
	sp, s := c.Spec, c.Setup
	w, err := workloads.ByName(sp.Workload, c.workloadConfig())
	if err != nil {
		return err
	}
	policies, err := policiesByName(sp.Policies)
	if err != nil {
		return err
	}
	scheds := make([]*chaos.Schedule, len(sp.Schedules))
	for i, sched := range sp.Schedules {
		if scheds[i], err = chaos.ParseSchedule(sched); err == nil {
			err = scheds[i].CheckExecutors(s.Nodes)
		}
		if err != nil {
			return fmt.Errorf("schedules[%d]: %w", i, err)
		}
	}
	preset, ok := chaosPresets[sp.Report]
	if !ok {
		return fmt.Errorf("unknown chaos-matrix preset %q (want faults or grayfail)", sp.Report)
	}
	c.run = func() (fmt.Stringer, error) {
		res := &ChaosResult{preset: preset}
		for _, pol := range policies {
			quiet, err := s.WithFaults(nil).Run(w, pol, nil)
			if err != nil {
				return nil, fmt.Errorf("%s %s quiet: %w", sp.Name, pol.Name(), err)
			}
			for _, sched := range scheds {
				plan := sched.Plan(quiet.Runtime, s.Seed)
				rep := quiet
				if !plan.Empty() {
					if rep, err = s.WithFaults(plan).Run(w, pol, nil); err != nil {
						return nil, fmt.Errorf("%s %s %s: %w", sp.Name, pol.Name(), plan, err)
					}
				}
				res.Cells = append(res.Cells, ChaosCell{Policy: pol.Name(), Schedule: plan.String(), Quiet: quiet, Report: rep})
			}
		}
		return res, nil
	}
	return nil
}
