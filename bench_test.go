package sae

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the artifact at full paper scale on the simulated
// cluster; headline quantities are attached as custom metrics so the shape
// comparison with the paper is visible in benchmark output. Run with:
//
//	go test -bench=. -benchmem
//
// Plus micro-benchmarks of the controller, the analyzer and the dataflow layer.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sae/internal/core"
	"sae/internal/engine/job"
	"sae/internal/exp"
	"sae/internal/metrics"
	"sae/internal/scenario"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Table1()
		if r.Total != 117 {
			b.Fatalf("total = %d", r.Total)
		}
		b.ReportMetric(float64(r.Total), "parameters")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Table2(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.App == "terasort" {
				b.ReportMetric(row.DiffPct, "terasort-io-diff-%")
			}
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure1(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Apps[0].Stages[0].CPUPercent, "terasort-s0-cpu-%")
		b.ReportMetric(r.Apps[0].Stages[0].IowaitPercent, "terasort-s0-iowait-%")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, _, err := exp.Figure2(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.Reduction(ts.Default, ts.BestFit), "terasort-bestfit-red-%")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure3(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MaxOverMinRd, "read-maxmin-x")
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agg, _, err := exp.Figure4(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.Reduction(agg.Default, agg.BestFit), "aggregation-bestfit-red-%")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure5(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Panels[0].UtilPct[0], "terasort-s0-util-at-32-%")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure6(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Threads[0][0]), "exec0-s0-threads")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure7(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Stages[0].Selected), "s0-selected-threads")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure8(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range r.Apps {
			b.ReportMetric(app.DynamicRed, app.App+"-dyn-red-%")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure9(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		var d4, d16 float64
		for _, row := range r.Rows {
			if row.Policy == "default" {
				if row.Nodes == 4 {
					d4 = row.Seconds
				} else {
					d16 = row.Seconds
				}
			}
		}
		b.ReportMetric(d16/d4, "default-16v4-slowdown-x")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hdd, ssd, err := exp.Figure10(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.Reduction(hdd.Default, hdd.BestFit), "hdd-bestfit-red-%")
		b.ReportMetric(exp.Reduction(ssd.Default, ssd.BestFit), "ssd-bestfit-red-%")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure11(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.App.DynamicRed, "ssd-dyn-red-%")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure12(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Panels {
			if p.Stage == 0 && p.Disk == "HDD" {
				b.ReportMetric(p.Mean[slices.Index(exp.SweepThreads, 4)], "hdd-s0-mean-MBps-at-4")
			}
		}
	}
}

// ---------------------------------------------------------------- substrates
//
// The kernel, device, DFS and engine rungs are measured by the repository
// benchmark (benchmark/ladder.go); the micro-benchmarks here cover what it
// does not.

// BenchmarkDynamicController measures MAPE-K decision overhead.
func BenchmarkDynamicController(b *testing.B) {
	c := core.DefaultDynamic().NewController(job.ExecutorInfo{MaxThreads: 32})
	c.StageStart(job.StageMeta{ID: 0, NumTasks: 1 << 30, IOMarked: true})
	tm := job.TaskMetrics{Stage: 0, BlockedIO: 1e6, BytesMoved: 1 << 20, End: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Start = tm.End
		tm.End += 1e9
		c.TaskDone(tm)
	}
}

// BenchmarkCongestionIndex times the paper's ζ = ε/µ (metrics.Interval's
// Congestion, which Fig. 7 and the sae_executor_zeta gauge report), not the
// duration / tasks / µ index the analyzer compares.
func BenchmarkCongestionIndex(b *testing.B) {
	iv := metrics.Interval{Start: 0, End: 1e9, BlockedIO: 5e8, Bytes: 1 << 30, Tasks: 8}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += iv.Congestion()
	}
	_ = sink
}

// BenchmarkRDDWordCount measures the dataflow layer end to end.
func BenchmarkRDDWordCount(b *testing.B) {
	lines := make([]string, 5000)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha beta gamma delta %d", i%97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, err := NewContext(ContextOptions{Policy: Default()})
		if err != nil {
			b.Fatal(err)
		}
		text := TextFile(ctx, "bench/in", lines, 16)
		words := FlatMap(text, func(l string) []string { return strings.Fields(l) })
		pairs := MapData(words, func(w string) Pair[string, int] { return Pair[string, int]{Key: w, Value: 1} })
		counts := ReduceByKey(pairs, func(a, b int) int { return a + b }, 8)
		out, _, err := Collect(counts)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFaults regenerates the fault-tolerance matrix: Terasort under
// quiet, crash, crash-restart and flaky chaos schedules for each policy.
func BenchmarkFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunExperiment("faults", exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.(*scenario.ChaosResult).Cells {
			if c.Policy == "dynamic" && strings.Contains(c.Schedule, "+") {
				requeued := 0
				for _, st := range c.Report.Stages {
					requeued += st.Requeued
				}
				b.ReportMetric(c.DegradedPct(), "dyn-crash-restart-degraded-%")
				b.ReportMetric(float64(requeued), "dyn-crash-restart-requeued")
			}
		}
	}
}

// BenchmarkGrayFail regenerates the gray-failure matrix: Terasort under a
// slow node, a heartbeat-dropping partition and corrupt DFS replicas, for
// each policy. The headline metric is the dynamic policy completing under
// a degraded (slow, not dead) node.
func BenchmarkGrayFail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunExperiment("grayfail", exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.(*scenario.ChaosResult).Cells {
			if c.Policy != "dynamic" {
				continue
			}
			switch rep := c.Report; {
			case strings.HasPrefix(c.Schedule, "slow"):
				b.ReportMetric(rep.Runtime.Seconds(), "dyn-slow-runtime-s")
				b.ReportMetric(c.DegradedPct(), "dyn-slow-degraded-%")
			case strings.HasPrefix(c.Schedule, "partition"):
				b.ReportMetric(float64(rep.Suspected), "dyn-partition-suspected")
				b.ReportMetric(float64(rep.Fenced), "dyn-partition-fenced")
			case strings.HasPrefix(c.Schedule, "corrupt"):
				b.ReportMetric(float64(rep.ChecksumFailovers), "dyn-corrupt-failovers")
			}
		}
	}
}

// BenchmarkMultiTenant regenerates the multi-tenancy matrix: concurrent
// Terasort/PageRank mixes under FIFO and fair sharing, with default and
// dynamic executor sizing.
func BenchmarkMultiTenant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment("multitenant", exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.(*scenario.TenantResult).Cells {
			if c.Mix != "terasort+pagerank" {
				continue
			}
			var makespan, sum float64
			for _, rep := range c.Reports {
				makespan = max(makespan, rep.Runtime.Seconds())
				sum += rep.Runtime.Seconds()
			}
			switch c.Sched + "/" + c.Policy {
			case "FAIR/dynamic":
				b.ReportMetric(makespan, "ts+pr-fair-dyn-makespan-s")
				b.ReportMetric(sum/float64(len(c.Reports)), "ts+pr-fair-dyn-meanjob-s")
			case "FIFO/default":
				b.ReportMetric(makespan, "ts+pr-fifo-def-makespan-s")
			}
		}
	}
}

// BenchmarkAblation regenerates the §5.2 design-choice ablation table.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Ablation(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := r.Get("terasort", "dynamic"); ok {
			b.ReportMetric(row.RedVsDefault, "terasort-dyn-red-%")
		}
		if row, ok := r.Get("terasort", "utilization-driven"); ok {
			b.ReportMetric(row.RedVsDefault, "terasort-util-red-%")
		}
	}
}
