package exp

import (
	"fmt"
	"strings"

	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/workloads"
)

// RunMulti executes several workloads concurrently on one engine under the
// given inter-job policy and returns their reports in submission order.
// Inputs shared between workloads (same file name) are created once; the
// first workload's block size wins, as the engine has one DFS.
func (s Setup) RunMulti(ws []*workloads.Spec, policy job.Policy, jobPolicy engine.InterJobPolicy) ([]*engine.JobReport, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("exp: no workloads")
	}
	var inputs []engine.Input
	seen := map[string]bool{}
	for _, w := range ws {
		for _, in := range w.Inputs {
			if !seen[in.Name] {
				seen[in.Name] = true
				inputs = append(inputs, in)
			}
		}
	}
	opts := s.engineOptions()
	opts.BlockSize = ws[0].BlockSize
	opts.Policy = policy
	opts.JobPolicy = jobPolicy
	opts.Faults = s.Faults
	opts.Inputs = inputs
	if s.Config != nil {
		if err := engine.ApplyConfig(&opts, s.Config); err != nil {
			return nil, err
		}
		if ws[0].BlockSize != 0 && !s.Config.IsSet("files.maxPartitionBytes") {
			opts.BlockSize = ws[0].BlockSize
		}
	}
	e, err := engine.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	var handles []*engine.JobHandle
	for _, w := range ws {
		h, err := e.Submit(w.Job)
		if err != nil {
			return nil, fmt.Errorf("exp: submit %s: %w", w.Name, err)
		}
		handles = append(handles, h)
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	reps := make([]*engine.JobReport, len(handles))
	for i, h := range handles {
		if reps[i], err = h.Report(); err != nil {
			return nil, fmt.Errorf("exp: job %s: %w", ws[i].Name, err)
		}
	}
	return reps, nil
}

// MultiTenantRow is one (mix, scheduler, policy) cell of the multi-tenant
// matrix.
type MultiTenantRow struct {
	Mix    string
	Sched  string
	Policy string
	// MakespanSec is when the last job of the mix finished.
	MakespanSec float64
	// MeanJobSec is the mean per-job runtime (each measured from its own
	// submission).
	MeanJobSec float64
	// JobSecs are the individual job runtimes in submission order.
	JobSecs []float64
}

// MultiTenantResult is the multi-tenancy experiment: mixes of concurrent
// Terasort and PageRank jobs under each inter-job scheduler × executor
// sizing policy. It extends the paper's single-tenant evaluation to the
// shared-cluster setting the DAG scheduler enables: does self-adaptive
// sizing still pay off when jobs compete for the same executors, and what
// does fair sharing cost or buy on top of it?
type MultiTenantResult struct {
	Rows []MultiTenantRow
}

// NewMultiTenantResult assembles the multi-tenant rows from tenant-matrix
// cells.
func NewMultiTenantResult(cells []TenantCell) *MultiTenantResult {
	res := &MultiTenantResult{}
	for _, c := range cells {
		row := MultiTenantRow{Mix: c.Mix, Sched: c.Sched, Policy: c.Policy}
		var sum, makespan float64
		for _, rep := range c.Reports {
			sec := rep.Runtime.Seconds()
			row.JobSecs = append(row.JobSecs, sec)
			sum += sec
			// All jobs are submitted at t=0, so the makespan is the
			// slowest job's runtime.
			if sec > makespan {
				makespan = sec
			}
		}
		row.MakespanSec = makespan
		row.MeanJobSec = sum / float64(len(c.Reports))
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Get returns the row for (mix, sched, policy).
func (r *MultiTenantResult) Get(mix, sched, policy string) (MultiTenantRow, bool) {
	for _, row := range r.Rows {
		if row.Mix == mix && row.Sched == sched && row.Policy == policy {
			return row, true
		}
	}
	return MultiTenantRow{}, false
}

func (r *MultiTenantResult) table() *Table {
	t := &Table{
		Title: "Multi-tenant — concurrent job mixes × inter-job scheduler × sizing policy",
		Name:  "multitenant",
		Columns: []Column{
			{Key: "mix", Head: "mix", HeadFmt: "%-22s", CellFmt: "%-22s"},
			{Key: "sched", Head: "sched", HeadFmt: "%-5s", CellFmt: "%-5s"},
			{Key: "policy", Head: "policy", HeadFmt: "%-16s", CellFmt: "%-16s"},
			{Key: "makespan_sec", Head: "makespan", HeadFmt: "%9s", CellFmt: "%8.1fs"},
			{Key: "mean_job_sec", Head: "mean-job", HeadFmt: "%9s", CellFmt: "%8.1fs"},
			{Key: "job_secs", Head: "per-job", HeadFmt: " %s", CellFmt: " [%s]",
				Text: func(v any) string {
					var jobs []string
					for _, s := range v.([]float64) {
						jobs = append(jobs, fmt.Sprintf("%.1f", s))
					}
					return strings.Join(jobs, " ")
				},
				CSV: func(v any) string {
					var jobs []string
					for _, s := range v.([]float64) {
						jobs = append(jobs, ftoa(s))
					}
					return strings.Join(jobs, ";")
				}},
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []any{
			row.Mix, row.Sched, row.Policy, row.MakespanSec, row.MeanJobSec, row.JobSecs,
		})
	}
	return t
}

func (r *MultiTenantResult) String() string { return r.table().String() }

// CSVTables implements Tabular.
func (r *MultiTenantResult) CSVTables() map[string][][]string { return r.table().CSVTables() }
