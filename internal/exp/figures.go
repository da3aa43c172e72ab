package exp

import (
	"fmt"
	"strings"
	"time"

	"sae/internal/cluster"
	"sae/internal/conf"
	"sae/internal/core"
	"sae/internal/engine"
	"sae/internal/metrics"
	"sae/internal/sim"
	"sae/internal/telemetry"
	"sae/internal/workloads"
)

// ---------------------------------------------------------------- Table 1

// Table1Row is one category count.
type Table1Row struct {
	Category conf.Category
	Count    int
}

// Table1Result reproduces Table 1: functional parameters per category.
type Table1Result struct {
	Rows  []Table1Row
	Total int
}

// Table1 counts the configuration catalogue.
func Table1() *Table1Result {
	r := conf.New()
	counts := r.CountByCategory()
	res := &Table1Result{Total: r.Len()}
	for _, c := range conf.Categories() {
		res.Rows = append(res.Rows, Table1Row{Category: c, Count: counts[c]})
	}
	return res
}

func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1 — functional parameters by category\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-32s %3d\n", row.Category, row.Count)
	}
	fmt.Fprintf(&b, "  %-32s %3d\n", "Total", r.Total)
	return b.String()
}

// ---------------------------------------------------------------- Figure 1

// AppStages is one application's per-stage usage under the default policy.
type AppStages struct {
	App    string
	Stages []engine.StageReport
}

// Figure1Result reproduces Fig. 1: per-stage CPU usage and disk iowait of
// the four evaluation applications at the default thread count.
type Figure1Result struct {
	Apps []AppStages
}

// Figure1 runs the four applications with stock executors and reports
// per-stage utilization.
func Figure1(s Setup) (*Figure1Result, error) {
	apps := fourApps()
	stages, err := Each(s, len(apps), func(s Setup, i int) (AppStages, error) {
		w := apps[i](s.workloadConfig())
		rep, err := s.Run(w, core.Default{}, nil)
		if err != nil {
			return AppStages{}, fmt.Errorf("figure1 %s: %w", w.Name, err)
		}
		return AppStages{App: w.Name, Stages: rep.Stages}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure1Result{Apps: stages}, nil
}

func (r *Figure1Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 1 — per-stage CPU usage and disk I/O wait (default executors)\n")
	for _, app := range r.Apps {
		fmt.Fprintf(&b, "  %s\n", app.App)
		for _, st := range app.Stages {
			fmt.Fprintf(&b, "    stage %d %-14s %8.1fs  cpu %5.1f%%  iowait %5.1f%%\n",
				st.ID, st.Name, st.Duration().Seconds(), st.CPUPercent, st.IowaitPercent)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one application's I/O amplification.
type Table2Row struct {
	App      string
	InputGiB float64
	IOGiB    float64
	DiffPct  float64
}

// Table2Result reproduces Table 2: I/O activity relative to input size for
// the nine HiBench applications.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 runs all nine applications with stock executors and accounts their
// task-level I/O activity (input + shuffle + output bytes, as reported by
// the engine's task metrics).
func Table2(s Setup) (*Table2Result, error) {
	ws := workloads.All(s.workloadConfig())
	rows, err := Each(s, len(ws), func(s Setup, i int) (Table2Row, error) {
		w := ws[i]
		rep, err := s.Run(w, core.Default{}, nil)
		if err != nil {
			return Table2Row{}, fmt.Errorf("table2 %s: %w", w.Name, err)
		}
		var io int64
		for _, st := range rep.Stages {
			io += st.Bytes()
		}
		in := float64(w.InputBytes)
		return Table2Row{
			App:      w.Name,
			InputGiB: workloads.GiB(w.InputBytes),
			IOGiB:    workloads.GiB(io),
			DiffPct:  100 * (float64(io) - in) / in,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table2Result{Rows: rows}, nil
}

func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2 — I/O activity relative to input size\n")
	fmt.Fprintf(&b, "  %-12s %12s %12s %10s\n", "Application", "Input (GiB)", "I/O (GiB)", "Diff")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %12.2f %12.2f %+9.0f%%\n", row.App, row.InputGiB, row.IOGiB, row.DiffPct)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figures 2 and 4

// Figure2 sweeps the static solution over Terasort and PageRank (Fig. 2).
func Figure2(s Setup) (terasort, pagerank *SweepResult, err error) {
	return sweepPair(s, workloads.Terasort, s, workloads.PageRank)
}

// Figure4 sweeps the static solution over the SQL applications (Fig. 4),
// where the default thread count wins.
func Figure4(s Setup) (aggregation, join *SweepResult, err error) {
	return sweepPair(s, workloads.Aggregation, s, workloads.Join)
}

// sweepPair runs StaticSweep of mkA on a beside that of mkB on b, a setup
// that shares a's sinks.
func sweepPair(a Setup, mkA func(workloads.Config) *workloads.Spec, b Setup, mkB func(workloads.Config) *workloads.Spec) (*SweepResult, *SweepResult, error) {
	setups, mks := []Setup{a, b}, []func(workloads.Config) *workloads.Spec{mkA, mkB}
	res, err := Each(a, 2, func(c Setup, i int) (*SweepResult, error) { return StaticSweep(setups[i].WithSinks(c), mks[i]) })
	if err != nil {
		return nil, nil, err
	}
	return res[0], res[1], nil
}

// ---------------------------------------------------------------- Figure 3

// Figure3Row is one node's sequential I/O timing.
type Figure3Row struct {
	Node     string
	Factor   float64
	ReadSec  float64
	WriteSec float64
}

// Figure3Result reproduces Fig. 3: per-node variability of reading and
// writing 30 GB on the DAS-5 cluster.
type Figure3Result struct {
	Rows          []Figure3Row
	MeanReadSec   float64
	MeanWriteSec  float64
	MaxOverMinRd  float64
	MaxOverMinWrt float64
}

// fig3Bytes is what Fig. 3 writes and reads per node: 30 GB, as in the paper.
const fig3Bytes = 30 * 1000 * 1000 * 1000

// Figure3 measures 30 GB sequential writes and reads on every node of a
// DAS-5-sized (44-node) cluster with the default variability model.
func Figure3(s Setup) (*Figure3Result, error) {
	return figure3(sim.NewKernel(), s), nil
}

// figure3 runs Figure3 on k, where a test may have scheduled events of its own.
func figure3(k *sim.Kernel, s Setup) *Figure3Result {
	const nodes = 44
	cfg := s.clusterConfig()
	cfg.Nodes = nodes
	c := cluster.New(k, cfg)
	res := &Figure3Result{Rows: make([]Figure3Row, nodes)}
	probes := make([]fig3Probe, nodes)
	for i := range probes {
		pr := &probes[i]
		pr.node, pr.row = c.Node(i), &res.Rows[i]
		k.GoStepper(&pr.proc, pr.node.Name, pr)
	}
	k.Run()
	minR, maxR := res.Rows[0].ReadSec, res.Rows[0].ReadSec
	minW, maxW := res.Rows[0].WriteSec, res.Rows[0].WriteSec
	for _, row := range res.Rows {
		res.MeanReadSec += row.ReadSec / nodes
		res.MeanWriteSec += row.WriteSec / nodes
		minR, maxR = min(minR, row.ReadSec), max(maxR, row.ReadSec)
		minW, maxW = min(minW, row.WriteSec), max(maxW, row.WriteSec)
	}
	res.MaxOverMinRd = maxR / minR
	res.MaxOverMinWrt = maxW / minW
	return res
}

// fig3Probe is one node's Fig. 3 measurement, a stackless process: its first
// step starts the write, its second (at the write's end) starts the read, and
// its third (at the read's end) records both phases' durations. fig3Bytes is
// positive, so each Start owes the probe its next step.
type fig3Probe struct {
	proc   sim.Proc
	node   *cluster.Node
	row    *Figure3Row
	t0, t1 time.Duration
	phase  int
}

func (pr *fig3Probe) Step() {
	now := pr.proc.Now()
	switch pr.phase++; pr.phase {
	case 1:
		pr.t0 = now
		pr.node.Disk.StartWrite(&pr.proc, fig3Bytes)
	case 2:
		pr.t1 = now
		pr.node.Disk.StartRead(&pr.proc, fig3Bytes)
	default:
		*pr.row = Figure3Row{
			Node:     pr.node.Name,
			Factor:   pr.node.SpeedFactor,
			WriteSec: (pr.t1 - pr.t0).Seconds(),
			ReadSec:  (now - pr.t1).Seconds(),
		}
	}
}

func (r *Figure3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3 — per-node 30 GB read/write time variability\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s read %6.1fs  write %6.1fs\n", row.Node, row.ReadSec, row.WriteSec)
	}
	fmt.Fprintf(&b, "  mean read %.1fs, mean write %.1fs, max/min read %.2fx, write %.2fx\n",
		r.MeanReadSec, r.MeanWriteSec, r.MaxOverMinRd, r.MaxOverMinWrt)
	return b.String()
}

// ---------------------------------------------------------------- Figure 5

// UtilPanel is one subplot of Fig. 5: disk utilization vs. thread count for
// one I/O stage of one application.
type UtilPanel struct {
	App     string
	Stage   int
	Threads []int
	UtilPct []float64
	// Best is the thread count with the highest utilization (the red
	// bar of Fig. 5).
	Best int
}

// Figure5Result reproduces Fig. 5: average disk utilization in the I/O
// stages of the four applications under the static sweep.
type Figure5Result struct {
	Panels []UtilPanel
}

// Figure5 derives the utilization panels from static sweeps.
func Figure5(s Setup) (*Figure5Result, error) {
	res := &Figure5Result{}
	panels := []struct {
		mk     func(workloads.Config) *workloads.Spec
		stages []int
	}{
		{workloads.Terasort, []int{0, 1, 2}},
		{workloads.PageRank, []int{0}},
		{workloads.Aggregation, []int{0}},
		{workloads.Join, []int{0}},
	}
	sweeps, err := Each(s, len(panels), func(s Setup, i int) (*SweepResult, error) { return widthSweep(s, panels[i].mk) })
	if err != nil {
		return nil, fmt.Errorf("figure5: %w", err)
	}
	for i, sweep := range sweeps {
		for _, stage := range panels[i].stages {
			panel := UtilPanel{App: sweep.App, Stage: stage}
			bestUtil := -1.0
			for i, th := range sweep.Threads {
				util := sweep.Runs[i].Stages[stage].DiskUtilPercent
				panel.Threads = append(panel.Threads, th)
				panel.UtilPct = append(panel.UtilPct, util)
				if util > bestUtil {
					bestUtil, panel.Best = util, th
				}
			}
			res.Panels = append(res.Panels, panel)
		}
	}
	return res, nil
}

func (r *Figure5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5 — average disk utilization in I/O stages (static sweep)\n")
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "  %s stage %d:", p.App, p.Stage)
		for i, th := range p.Threads {
			mark := " "
			if th == p.Best {
				mark = "*" // the red bar
			}
			fmt.Fprintf(&b, "  %d→%5.1f%%%s", th, p.UtilPct[i], mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Figure6Result reproduces Fig. 6: the thread count the dynamic solution
// selects per stage, for every executor.
type Figure6Result struct {
	App string
	// Threads[e][s] is executor e's final pool size in stage s.
	Threads [][]int
	Stages  []string
}

// Figure6 runs Terasort with self-adaptive executors.
func Figure6(s Setup) (*Figure6Result, error) {
	w := workloads.Terasort(s.workloadConfig())
	rep, err := s.Run(w, core.DefaultDynamic(), nil)
	if err != nil {
		return nil, fmt.Errorf("figure6: %w", err)
	}
	res := &Figure6Result{App: w.Name}
	for _, st := range rep.Stages {
		res.Stages = append(res.Stages, st.Name)
	}
	perStage := rep.FinalThreads()
	if len(perStage) > 0 {
		execs := len(perStage[0])
		res.Threads = make([][]int, execs)
		for e := 0; e < execs; e++ {
			for s := range perStage {
				res.Threads[e] = append(res.Threads[e], perStage[s][e])
			}
		}
	}
	return res, nil
}

func (r *Figure6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — dynamic thread selection per stage and executor (%s)\n", r.App)
	fmt.Fprintf(&b, "  %-10s", "")
	for s := range r.Stages {
		fmt.Fprintf(&b, "  stage%-2d", s)
	}
	b.WriteString("\n")
	for e, row := range r.Threads {
		fmt.Fprintf(&b, "  executor%-2d", e)
		for _, th := range row {
			fmt.Fprintf(&b, " %7d", th)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 7

// Fig7Stage is one subplot: ε, µ and ζ against the thread count for one
// Terasort stage on executor 0.
type Fig7Stage struct {
	Stage   int
	Threads []int
	EpsSec  []float64
	MuMBps  []float64
	Zeta    []float64
	// Selected is the thread count the dynamic solution chose for this
	// stage on executor 0.
	Selected int
}

// Figure7Result reproduces Fig. 7.
type Figure7Result struct {
	Stages []Fig7Stage
}

// Figure7 measures ε, µ and ζ per static thread setting (ascending order,
// as plotted) for each Terasort stage, and marks the dynamic selection.
func Figure7(s Setup) (*Figure7Result, error) {
	sweep, dyn, err := besideDynamic(s, workloads.Terasort, widthSweep)
	if err != nil {
		return nil, fmt.Errorf("figure7: %w", err)
	}
	res := &Figure7Result{}
	for si := range sweep.Default.Stages {
		fs := Fig7Stage{Stage: si, Selected: dyn.Stages[si].Execs[0].FinalThreads}
		for i := len(sweep.Threads) - 1; i >= 0; i-- { // ascending 2..32
			st := sweep.Runs[i].Stages[si]
			iv := metrics.Interval{Start: st.Start, End: st.End, BlockedIO: st.Execs[0].BlockedIO, Bytes: st.Execs[0].Bytes}
			fs.Threads = append(fs.Threads, sweep.Threads[i])
			fs.EpsSec = append(fs.EpsSec, iv.BlockedIO.Seconds())
			fs.MuMBps = append(fs.MuMBps, iv.Throughput()/1e6)
			fs.Zeta = append(fs.Zeta, iv.Congestion()*1e6) // ε/µ, scaled to s per MB/s
		}
		res.Stages = append(res.Stages, fs)
	}
	return res, nil
}

func (r *Figure7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7 — ε, µ and ζ vs thread count (Terasort, executor 0)\n")
	for _, fs := range r.Stages {
		fmt.Fprintf(&b, "  stage %d (dynamic selected %d threads)\n", fs.Stage, fs.Selected)
		for i, th := range fs.Threads {
			sel := " "
			if th == fs.Selected {
				sel = "←"
			}
			fmt.Fprintf(&b, "    %2d threads: ε %8.1fs  µ %7.1f MB/s  ζ %8.4f %s\n",
				th, fs.EpsSec[i], fs.MuMBps[i], fs.Zeta[i], sel)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 8

// Fig8App compares the three solutions on one application.
type Fig8App struct {
	App     string
	Default *engine.JobReport
	BestFit *engine.JobReport
	Dynamic *engine.JobReport
	// Reduction percentages relative to Default.
	BestFitRed float64
	DynamicRed float64
}

// Figure8Result reproduces Fig. 8: default vs static-BestFit vs dynamic.
type Figure8Result struct {
	Apps []Fig8App
}

// Figure8 runs the full comparison for the four applications.
func Figure8(s Setup) (*Figure8Result, error) {
	apps := fourApps()
	panels, err := Each(s, len(apps), func(s Setup, i int) (Fig8App, error) { return compare(s, apps[i]) })
	if err != nil {
		return nil, fmt.Errorf("figure8: %w", err)
	}
	return &Figure8Result{Apps: panels}, nil
}

// compare produces one Fig. 8 panel.
func compare(s Setup, mk func(workloads.Config) *workloads.Spec) (Fig8App, error) {
	sweep, rep, err := besideDynamic(s, mk, StaticSweep)
	if err != nil {
		return Fig8App{}, err
	}
	return Fig8App{
		App:        sweep.App,
		Default:    sweep.Default,
		BestFit:    sweep.BestFit,
		Dynamic:    rep,
		BestFitRed: Reduction(sweep.Default, sweep.BestFit),
		DynamicRed: Reduction(sweep.Default, rep),
	}, nil
}

// besideDynamic runs sweep of mk beside mk's run under the dynamic policy and
// returns the error a loop would, the sweep's before the dynamic run's, which
// is labelled.
func besideDynamic(s Setup, mk func(workloads.Config) *workloads.Spec, sweep func(Setup, func(workloads.Config) *workloads.Spec) (*SweepResult, error)) (*SweepResult, *engine.JobReport, error) {
	var res *SweepResult
	reps, err := Each(s, 2, func(s Setup, i int) (rep *engine.JobReport, err error) {
		if i == 0 {
			res, err = sweep(s, mk)
		} else if rep, err = s.Run(mk(s.workloadConfig()), core.DefaultDynamic(), nil); err != nil {
			err = fmt.Errorf("dynamic: %w", err)
		}
		return rep, err
	})
	if err != nil {
		return nil, nil, err
	}
	return res, reps[1], nil
}

func (r *Figure8Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 8 — default vs static-BestFit vs dynamic\n")
	for _, app := range r.Apps {
		fmt.Fprintf(&b, "  %s: default %.1fs | bestfit %.1fs (red %+.1f%%) | dynamic %.1fs (red %+.1f%%)\n",
			app.App, app.Default.Runtime.Seconds(), app.BestFit.Runtime.Seconds(), app.BestFitRed,
			app.Dynamic.Runtime.Seconds(), app.DynamicRed)
		for si, def := range app.Default.Stages {
			bf, dyn := app.BestFit.Stages[si], app.Dynamic.Stages[si]
			fmt.Fprintf(&b, "    stage %d %-14s default %8.1fs %-8s  bestfit %8.1fs %-8s  dynamic %8.1fs %-8s\n",
				si, def.Name,
				def.Duration().Seconds(), def.ThreadsLabel(),
				bf.Duration().Seconds(), bf.ThreadsLabel(),
				dyn.Duration().Seconds(), dyn.ThreadsLabel())
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 9

// Fig9Row is one bar of Fig. 9.
type Fig9Row struct {
	Nodes   int
	Policy  string
	Seconds float64
	Stages  []engine.StageReport
}

// Figure9Result reproduces Fig. 9: Terasort scalability, 4 vs 16 nodes with
// proportionally scaled input.
type Figure9Result struct {
	Rows []Fig9Row
}

// Figure9 runs Terasort under the three policies on the base cluster and on
// a 16-node cluster (input scales with the cluster, as in the paper).
func Figure9(s Setup) (*Figure9Result, error) {
	sizes := []int{s.Nodes, 16}
	apps, err := Each(s, len(sizes), func(s Setup, i int) (Fig8App, error) {
		app, err := compare(s.WithNodes(sizes[i]), workloads.Terasort)
		if err != nil {
			return app, fmt.Errorf("figure9 %d nodes: %w", sizes[i], err)
		}
		return app, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Figure9Result{}
	for i, app := range apps {
		nodes := sizes[i]
		res.Rows = append(res.Rows,
			Fig9Row{Nodes: nodes, Policy: "default", Seconds: app.Default.Runtime.Seconds(), Stages: app.Default.Stages},
			Fig9Row{Nodes: nodes, Policy: "static-bestfit", Seconds: app.BestFit.Runtime.Seconds(), Stages: app.BestFit.Stages},
			Fig9Row{Nodes: nodes, Policy: "dynamic", Seconds: app.Dynamic.Runtime.Seconds(), Stages: app.Dynamic.Stages},
		)
	}
	return res, nil
}

func (r *Figure9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9 — Terasort scalability (input scaled with cluster size)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %2d nodes %-16s %8.1fs  [", row.Nodes, row.Policy, row.Seconds)
		for i, st := range row.Stages {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(st.ThreadsLabel())
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Figures 10 and 11

// Figure10 sweeps the static solution over Terasort on HDDs and SSDs.
func Figure10(s Setup) (hdd, ssd *SweepResult, err error) {
	return sweepPair(s, workloads.Terasort, s.WithSSD(), workloads.Terasort)
}

// Figure11Result reproduces Fig. 11: the three solutions on SSDs.
type Figure11Result struct {
	App Fig8App
}

// Figure11 compares the solutions for Terasort on SSD storage.
func Figure11(s Setup) (*Figure11Result, error) {
	app, err := compare(s.WithSSD(), workloads.Terasort)
	if err != nil {
		return nil, fmt.Errorf("figure11: %w", err)
	}
	return &Figure11Result{App: app}, nil
}

func (r *Figure11Result) String() string {
	app := r.App
	var b strings.Builder
	b.WriteString("Figure 11 — Terasort on SSDs\n")
	fmt.Fprintf(&b, "  default %.1fs | bestfit %.1fs (red %+.1f%%) | dynamic %.1fs (red %+.1f%%)\n",
		app.Default.Runtime.Seconds(), app.BestFit.Runtime.Seconds(), app.BestFitRed, app.Dynamic.Runtime.Seconds(), app.DynamicRed)
	for si, def := range app.Default.Stages {
		fmt.Fprintf(&b, "    stage %d: default %-8s bestfit %-8s dynamic %-8s\n", si,
			def.ThreadsLabel(), app.BestFit.Stages[si].ThreadsLabel(),
			app.Dynamic.Stages[si].ThreadsLabel())
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 12

// ThroughputPanel is one subplot of Fig. 12: per-second I/O throughput of
// executor 0 during one Terasort stage, one series per thread count.
type ThroughputPanel struct {
	Disk  string
	Stage int
	// Series[i] is the run at SweepThreads[i]: executor 0's byte counter
	// as the telemetry registry sampled it, differentiated into MB/s per
	// sampler interval, with time rebased to the stage start.
	Series [][]telemetry.SamplePoint
	// Mean[i] is the mean of Series[i] (the dashed mean lines of Fig. 12).
	Mean []float64
}

// Figure12Result reproduces Fig. 12.
type Figure12Result struct {
	Panels []ThroughputPanel
}

// Figure12 samples executor 0's I/O throughput once per (virtual) second
// during Terasort's first two stages, per thread count, on HDDs and SSDs.
func Figure12(s Setup) (*Figure12Result, error) {
	disks := []struct {
		name  string
		setup Setup
	}{{"HDD", s}, {"SSD", s.WithSSD()}}
	res := &Figure12Result{}
	for _, disk := range disks {
		for stage := range 2 {
			res.Panels = append(res.Panels, ThroughputPanel{
				Disk:   disk.name,
				Stage:  stage,
				Series: make([][]telemetry.SamplePoint, len(SweepThreads)),
				Mean:   make([]float64, len(SweepThreads)),
			})
		}
	}
	_, err := Each(s, len(disks)*len(SweepThreads), func(c Setup, i int) (*engine.JobReport, error) {
		d, ti := i/len(SweepThreads), i%len(SweepThreads)
		disk, th, panels := disks[d], SweepThreads[ti], res.Panels[2*d:2*d+2]
		// The engine's registry samples executor 0's cumulative byte
		// counter once per virtual second (t=0 baseline included) on a
		// monotone clock, one sample per instant.
		run := disk.setup.WithSinks(c)
		run.Metrics = telemetry.NewRegistry()
		run.MetricsInterval = time.Second
		rep, err := run.Run(
			workloads.Terasort(run.workloadConfig()),
			core.Static{IOThreads: th}, nil)
		if err != nil {
			return nil, fmt.Errorf("figure12 %s %d threads: %w", disk.name, th, err)
		}
		pts, _ := run.Metrics.Series("sae_executor_bytes_total", "exec", "0")
		// Differentiate in place, back to front: pts[i] becomes the rate
		// over the interval that ends at it, and the first sample, which
		// only opens an interval, drops out.
		for i := len(pts) - 1; i > 0; i-- {
			pts[i].Value = (pts[i].Value - pts[i-1].Value) / (pts[i].At - pts[i-1].At).Seconds()
		}
		rates := pts[min(1, len(pts)):]
		for stage := range panels {
			st := rep.Stages[stage]
			var series []telemetry.SamplePoint
			var sum float64
			for _, pt := range rates {
				if pt.At >= st.Start && pt.At <= st.End {
					pt.At -= st.Start
					pt.Value /= 1e6
					series = append(series, pt)
					sum += pt.Value
				}
			}
			panels[stage].Series[ti] = series
			if len(series) > 0 {
				panels[stage].Mean[ti] = sum / float64(len(series))
			}
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (r *Figure12Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 12 — Terasort I/O throughput time series (executor 0)\n")
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "  stage %d, %s (mean MB/s by threads):", p.Stage, p.Disk)
		for i, th := range SweepThreads {
			fmt.Fprintf(&b, "  %d→%6.1f", th, p.Mean[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fourApps returns the Table 3 applications in Fig. 1/8 order.
func fourApps() []func(workloads.Config) *workloads.Spec {
	return []func(workloads.Config) *workloads.Spec{
		workloads.Terasort, workloads.PageRank, workloads.Aggregation, workloads.Join,
	}
}
