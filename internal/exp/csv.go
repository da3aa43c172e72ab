package exp

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"sae/internal/engine"
)

// Tabular is implemented by experiment results that can export their data
// series as CSV tables (name → header+rows), for external plotting.
type Tabular interface {
	CSVTables() map[string][][]string
}

// WriteCSV writes each of a result's tables to dir/<name>.csv.
func WriteCSV(dir string, result Tabular) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("exp: create csv dir: %w", err)
	}
	for name, rows := range result.CSVTables() {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return fmt.Errorf("exp: create csv: %w", err)
		}
		w := csv.NewWriter(f)
		if err := w.WriteAll(rows); err != nil {
			f.Close()
			return fmt.Errorf("exp: write csv %s: %w", name, err)
		}
		w.Flush()
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func itoa(v int) string     { return strconv.Itoa(v) }

// CSVTables implements Tabular.
func (r *Table1Result) CSVTables() map[string][][]string {
	rows := [][]string{{"category", "parameters"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{string(row.Category), itoa(row.Count)})
	}
	rows = append(rows, []string{"Total", itoa(r.Total)})
	return map[string][][]string{"table1_parameters": rows}
}

// CSVTables implements Tabular.
func (r *Table2Result) CSVTables() map[string][][]string {
	rows := [][]string{{"application", "input_gib", "io_gib", "diff_pct"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.App, ftoa(row.InputGiB), ftoa(row.IOGiB), ftoa(row.DiffPct)})
	}
	return map[string][][]string{"table2_io_activity": rows}
}

// CSVTables implements Tabular.
func (r *Figure1Result) CSVTables() map[string][][]string {
	rows := [][]string{{"application", "stage", "name", "seconds", "cpu_pct", "iowait_pct"}}
	for _, app := range r.Apps {
		for _, st := range app.Stages {
			rows = append(rows, []string{app.App, itoa(st.ID), st.Name,
				ftoa(st.Duration().Seconds()), ftoa(st.CPUPercent), ftoa(st.IowaitPercent)})
		}
	}
	return map[string][][]string{"fig1_stage_usage": rows}
}

// CSVTables implements Tabular.
func (r *SweepResult) CSVTables() map[string][][]string {
	rows := [][]string{{"threads", "stage", "seconds", "disk_util_pct"}}
	for i, th := range r.Threads {
		for _, st := range r.Runs[i].Stages {
			rows = append(rows, []string{itoa(th), itoa(st.ID), ftoa(st.Duration().Seconds()), ftoa(st.DiskUtilPercent)})
		}
	}
	for _, st := range r.BestFit.Stages {
		rows = append(rows, []string{"bestfit", itoa(st.ID), ftoa(st.Duration().Seconds()), ftoa(st.DiskUtilPercent)})
	}
	return map[string][][]string{"sweep_" + r.App: rows}
}

// CSVTables implements Tabular.
func (r *Figure3Result) CSVTables() map[string][][]string {
	rows := [][]string{{"node", "speed_factor", "read_sec", "write_sec"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Node, ftoa(row.Factor), ftoa(row.ReadSec), ftoa(row.WriteSec)})
	}
	return map[string][][]string{"fig3_node_variability": rows}
}

// CSVTables implements Tabular.
func (r *Figure5Result) CSVTables() map[string][][]string {
	rows := [][]string{{"application", "stage", "threads", "disk_util_pct", "best"}}
	for _, p := range r.Panels {
		for i, th := range p.Threads {
			rows = append(rows, []string{p.App, itoa(p.Stage), itoa(th), ftoa(p.UtilPct[i]),
				strconv.FormatBool(th == p.Best)})
		}
	}
	return map[string][][]string{"fig5_disk_utilization": rows}
}

// CSVTables implements Tabular.
func (r *Figure6Result) CSVTables() map[string][][]string {
	rows := [][]string{{"executor", "stage", "threads"}}
	for e, perStage := range r.Threads {
		for s, th := range perStage {
			rows = append(rows, []string{itoa(e), itoa(s), itoa(th)})
		}
	}
	return map[string][][]string{"fig6_thread_selection": rows}
}

// CSVTables implements Tabular.
func (r *Figure7Result) CSVTables() map[string][][]string {
	rows := [][]string{{"stage", "threads", "epsilon_sec", "mu_mbps", "zeta", "selected"}}
	for _, fs := range r.Stages {
		for i, th := range fs.Threads {
			rows = append(rows, []string{itoa(fs.Stage), itoa(th), ftoa(fs.EpsSec[i]),
				ftoa(fs.MuMBps[i]), ftoa(fs.Zeta[i]), strconv.FormatBool(th == fs.Selected)})
		}
	}
	return map[string][][]string{"fig7_congestion": rows}
}

// CSVTables implements Tabular.
func (r *Figure8Result) CSVTables() map[string][][]string {
	rows := [][]string{{"application", "policy", "stage", "seconds", "threads_label"}}
	for _, app := range r.Apps {
		for _, run := range []*engine.JobReport{app.Default, app.BestFit, app.Dynamic} {
			for _, st := range run.Stages {
				rows = append(rows, []string{app.App, run.Policy, itoa(st.ID), ftoa(st.Duration().Seconds()), st.ThreadsLabel()})
			}
		}
	}
	totals := [][]string{{"application", "default_sec", "bestfit_sec", "bestfit_red_pct", "dynamic_sec", "dynamic_red_pct"}}
	for _, app := range r.Apps {
		totals = append(totals, []string{app.App, ftoa(app.Default.Runtime.Seconds()),
			ftoa(app.BestFit.Runtime.Seconds()), ftoa(app.BestFitRed),
			ftoa(app.Dynamic.Runtime.Seconds()), ftoa(app.DynamicRed)})
	}
	return map[string][][]string{"fig8_stages": rows, "fig8_totals": totals}
}

// CSVTables implements Tabular.
func (r *Figure9Result) CSVTables() map[string][][]string {
	rows := [][]string{{"nodes", "policy", "seconds"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{itoa(row.Nodes), row.Policy, ftoa(row.Seconds)})
	}
	return map[string][][]string{"fig9_scalability": rows}
}

// CSVTables implements Tabular.
func (r *Figure11Result) CSVTables() map[string][][]string {
	rows := [][]string{{"policy", "seconds", "red_pct"}}
	rows = append(rows,
		[]string{"default", ftoa(r.App.Default.Runtime.Seconds()), "0"},
		[]string{"static-bestfit", ftoa(r.App.BestFit.Runtime.Seconds()), ftoa(r.App.BestFitRed)},
		[]string{"dynamic", ftoa(r.App.Dynamic.Runtime.Seconds()), ftoa(r.App.DynamicRed)})
	return map[string][][]string{"fig11_ssd": rows}
}

// CSVTables implements Tabular.
func (r *Figure12Result) CSVTables() map[string][][]string {
	rows := [][]string{{"disk", "stage", "threads", "t_sec", "throughput_mbps"}}
	means := [][]string{{"disk", "stage", "threads", "mean_mbps"}}
	for _, p := range r.Panels {
		for i, th := range SweepThreads {
			for _, pt := range p.Series[i] {
				rows = append(rows, []string{p.Disk, itoa(p.Stage), itoa(th),
					ftoa(pt.At.Seconds()), ftoa(pt.Value)})
			}
			means = append(means, []string{p.Disk, itoa(p.Stage), itoa(th), ftoa(p.Mean[i])})
		}
	}
	return map[string][][]string{"fig12_series": rows, "fig12_means": means}
}

// CSVTables implements Tabular.
func (r *AblationResult) CSVTables() map[string][][]string {
	rows := [][]string{{"application", "variant", "seconds", "red_vs_default_pct"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.App, row.Variant, ftoa(row.Seconds), ftoa(row.RedVsDefault)})
	}
	return map[string][][]string{"ablation": rows}
}

// CSVTables implements Tabular.
func (r *InterferenceResult) CSVTables() map[string][][]string {
	rows := [][]string{{"policy", "interference", "seconds"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Policy, strconv.FormatBool(row.Interference), ftoa(row.Seconds)})
	}
	return map[string][][]string{"interference": rows}
}
