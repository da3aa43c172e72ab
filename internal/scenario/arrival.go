package scenario

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"sae/internal/arrival"
	"sae/internal/autoscale"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/exp"
	"sae/internal/metrics"
)

// autoscaleSLOFactor sets the per-scenario p99 latency target relative to
// the static-large baseline: an elastic config "meets SLO" when its overall
// p99 job latency stays within this factor of always-on full capacity.
const autoscaleSLOFactor = 1.5

// AutoscaleClassRow is one tenant class's latency summary under one
// (arrival process, cluster config) cell.
type AutoscaleClassRow struct {
	Class string
	Jobs  int
	// P50/P95/P99 are job sojourn-time percentiles in seconds (submission
	// to completion — the per-tenant SLO latency).
	P50Sec, P95Sec, P99Sec float64
	// MeanQueueSec is the mean delay before a job's first task launched.
	MeanQueueSec float64
}

// AutoscaleRow is one (arrival process, cluster config) cell.
type AutoscaleRow struct {
	Arrivals string
	Config   string
	Jobs     int
	// NodeHours is the run's provisioned cost (integral of live nodes).
	NodeHours float64
	// PeakNodes is the largest fleet; ScaleUps/Drains count actions.
	PeakNodes        int
	ScaleUps, Drains int
	// P99Sec is the overall p99 job latency; SLOMet is whether it stayed
	// within the SLO factor of the baseline config's p99 for the same
	// arrivals.
	P99Sec float64
	SLOMet bool
	// Classes breaks latency down per tenant class.
	Classes []AutoscaleClassRow
}

// AutoscaleResult compares static and elastic provisioning under open-loop
// traffic: the same seeded arrival schedule is replayed against a small
// static fleet, a large static fleet, a threshold autoscaler, and the
// MAPE-K adaptive autoscaler, reporting per-tenant latency percentiles and
// node-hours. The question mirrors the paper's, one level up: can a
// self-adaptive capacity estimate deliver near-static-large p99 latency at
// a fraction of its cost, where a static small fleet drowns in bursts?
type AutoscaleResult struct {
	Rows []AutoscaleRow
	// SLOFactor is the p99 tolerance the verdicts were computed against
	// (0 renders as the experiment default); Baseline names the config the
	// tolerance is relative to (empty renders as "static-large").
	SLOFactor float64
	Baseline  string
}

func (r *AutoscaleResult) sloFactor() float64 {
	if r.SLOFactor > 0 {
		return r.SLOFactor
	}
	return autoscaleSLOFactor
}

func (r *AutoscaleResult) String() string {
	baseline := r.Baseline
	if baseline == "" {
		baseline = "static-large"
	}
	var b strings.Builder
	b.WriteString("Autoscale — open-loop arrivals × provisioning config (p99 SLO = ")
	fmt.Fprintf(&b, "%.1f× %s)\n", r.sloFactor(), baseline)
	fmt.Fprintf(&b, "  %-8s %-13s %5s %10s %5s %9s %7s %8s %5s\n",
		"arrivals", "config", "jobs", "node-hours", "peak", "scale-ups", "drains", "p99", "SLO")
	for _, row := range r.Rows {
		verdict := "met"
		if !row.SLOMet {
			verdict = "miss"
		}
		fmt.Fprintf(&b, "  %-8s %-13s %5d %10.2f %5d %9d %7d %7.1fs %5s\n",
			row.Arrivals, row.Config, row.Jobs, row.NodeHours, row.PeakNodes,
			row.ScaleUps, row.Drains, row.P99Sec, verdict)
		for _, c := range row.Classes {
			fmt.Fprintf(&b, "    %-11s %3d job(s)  p50 %6.1fs  p95 %6.1fs  p99 %6.1fs  queue %6.1fs\n",
				c.Class, c.Jobs, c.P50Sec, c.P95Sec, c.P99Sec, c.MeanQueueSec)
		}
	}
	return b.String()
}

// CSVTables implements exp.Tabular.
func (r *AutoscaleResult) CSVTables() map[string][][]string {
	rows := [][]string{{"arrivals", "config", "class", "jobs",
		"p50_sec", "p95_sec", "p99_sec", "mean_queue_sec",
		"node_hours", "peak_nodes", "scale_ups", "drains", "slo_met"}}
	for _, row := range r.Rows {
		met := "0"
		if row.SLOMet {
			met = "1"
		}
		for _, c := range row.Classes {
			rows = append(rows, []string{
				row.Arrivals, row.Config, c.Class, fmt.Sprintf("%d", c.Jobs),
				ftoa(c.P50Sec), ftoa(c.P95Sec), ftoa(c.P99Sec), ftoa(c.MeanQueueSec),
				ftoa(row.NodeHours), fmt.Sprintf("%d", row.PeakNodes),
				fmt.Sprintf("%d", row.ScaleUps), fmt.Sprintf("%d", row.Drains), met,
			})
		}
	}
	return map[string][][]string{"autoscale": rows}
}

// compileArrivalMatrix drives the open-loop elasticity comparison: one
// seeded arrival schedule per arrival process, replayed against every
// provisioning config on a fleet of capacity nodes, the replays side by side
// (exp.Each).
func (c *Compiled) compileArrivalMatrix() error {
	sp, s := c.Spec, c.Setup
	m := sp.Arrival
	if m == nil {
		return fmt.Errorf("arrival-matrix spec has no arrival block")
	}
	n, perNode, err := parseCapacity(m.Capacity)
	if err != nil {
		return fmt.Errorf("capacity: %w", err)
	}
	capacity := n
	if perNode {
		capacity = n * s.Nodes
	}
	procs := make([]arrival.Process, len(m.Arrivals))
	for i, p := range m.Arrivals {
		if procs[i], err = p.process(); err != nil {
			return err
		}
	}
	for _, p := range m.Configs {
		if _, err := p.planner(); err != nil {
			return err
		}
		if _, err := p.initialNodes(capacity); err != nil {
			return err
		}
	}
	if !slices.ContainsFunc(m.Configs, func(p ProvisionSpec) bool { return p.Name == m.SLO.Baseline }) {
		return fmt.Errorf("SLO baseline config %q not in the config list", m.SLO.Baseline)
	}
	factor := m.SLO.Factor
	if factor == 0 {
		factor = autoscaleSLOFactor
	}
	classes := make([]arrival.Class, len(m.Tenants))
	for i, t := range m.Tenants {
		classes[i] = arrival.Class{Name: t.Name, Weight: t.Weight, Priority: t.Priority}
	}
	maxJobs := scaleCount(m.MaxJobs, s.Scale, max(m.MinJobs, 1))
	c.run = func() (fmt.Stringer, error) {
		// One schedule per process, replayed against every config — the
		// comparison isolates provisioning, not traffic noise.
		scheds := make([][]arrival.Arrival, len(m.Arrivals))
		for i := range m.Arrivals {
			scheds[i] = arrival.Spec{
				Proc:    procs[i],
				Classes: classes,
				Seed:    s.Seed,
				Horizon: m.Horizon,
				MaxJobs: maxJobs,
			}.Generate()
		}
		rows, err := exp.Each(s, len(m.Arrivals)*len(m.Configs), func(s exp.Setup, k int) (AutoscaleRow, error) {
			p, cfg := m.Arrivals[k/len(m.Configs)], m.Configs[k%len(m.Configs)]
			sched := scheds[k/len(m.Configs)]
			if len(sched) == 0 {
				return AutoscaleRow{}, fmt.Errorf("%s: %s generated no arrivals", sp.Name, p.Name)
			}
			row, err := c.replay(s, cfg, capacity, sched)
			if err != nil {
				return AutoscaleRow{}, fmt.Errorf("%s %s/%s: %w", sp.Name, p.Name, cfg.Name, err)
			}
			row.Arrivals = p.Name
			return row, nil
		})
		if err != nil {
			return nil, err
		}
		// SLO verdicts are relative to the baseline config on the same
		// arrivals.
		for proc := range slices.Chunk(rows, len(m.Configs)) {
			var base float64
			for j, cfg := range m.Configs {
				if cfg.Name == m.SLO.Baseline {
					base = proc[j].P99Sec
				}
			}
			for j := range proc {
				proc[j].SLOMet = proc[j].P99Sec <= factor*base
			}
		}
		return &AutoscaleResult{Rows: rows, SLOFactor: factor, Baseline: m.SLO.Baseline}, nil
	}
	return nil
}

// replay runs one arrival schedule against one provisioning config on a
// fleet of capacity nodes of s, under FAIR sharing and default executor
// sizing.
func (c *Compiled) replay(s exp.Setup, cfg ProvisionSpec, capacity int, sched []arrival.Arrival) (AutoscaleRow, error) {
	big := withScheduler(s, "FAIR")
	big.Nodes = capacity
	scale := big.Scale
	tenants := map[string]TenantSpec{}
	var inputs []engine.Input
	for _, t := range c.Spec.Arrival.Tenants {
		tenants[t.Name] = t
		inputs = append(inputs, t.input(scale))
	}
	// Keep the DFS layout independent of the spec's tenant order.
	slices.SortFunc(inputs, func(a, b engine.Input) int { return cmp.Compare(a.Name, b.Name) })
	opts := big.Options(core.Default{}, 64*device.MiB, inputs)
	planner, err := cfg.planner()
	if err != nil {
		return AutoscaleRow{}, err
	}
	initial, _ := cfg.initialNodes(capacity) // Compile checked it
	opts.Autoscale = &engine.AutoscaleConfig{Policy: planner, InitialNodes: initial}
	handles := make([]*engine.JobHandle, len(sched))
	e, err := exp.RunEngine(opts, func(e *engine.Engine) (err error) {
		for i, a := range sched {
			if handles[i], err = e.SubmitAt(a.At, tenants[a.Class.Name].job(a.Seq, scale)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return AutoscaleRow{}, err
	}

	byName := map[string][]*engine.JobReport{}
	var all []time.Duration
	for _, h := range handles {
		rep, err := h.Report()
		if err != nil {
			return AutoscaleRow{}, err
		}
		byName[rep.Tenant] = append(byName[rep.Tenant], rep)
		all = append(all, rep.Runtime)
	}
	ar := e.AutoscaleReport()
	row := AutoscaleRow{
		Config:    cfg.Name,
		Jobs:      len(sched),
		NodeHours: ar.NodeSeconds / 3600,
		PeakNodes: ar.PeakNodes,
		ScaleUps:  ar.Activations,
		Drains:    ar.Drains,
		P99Sec:    metrics.Quantiles(all, 0.99)[0].Seconds(),
	}
	// Class rows in a fixed order (interactive before batch) for stable
	// rendering and goldens.
	for _, name := range slices.Sorted(maps.Keys(byName)) {
		reps := byName[name]
		var lat []time.Duration
		var queue time.Duration
		for _, rep := range reps {
			lat = append(lat, rep.Runtime)
			queue += rep.QueueDelay
		}
		q := metrics.Quantiles(lat, 0.5, 0.95, 0.99)
		row.Classes = append(row.Classes, AutoscaleClassRow{
			Class:        name,
			Jobs:         len(reps),
			P50Sec:       q[0].Seconds(),
			P95Sec:       q[1].Seconds(),
			P99Sec:       q[2].Seconds(),
			MeanQueueSec: (queue / time.Duration(len(reps))).Seconds(),
		})
	}
	return row, nil
}

// blocks is the tenant's per-job input in 64 MiB blocks at a cluster scale.
func (t TenantSpec) blocks(scale float64) int {
	return scaleCount(t.Blocks, scale, max(t.MinBlocks, 1))
}

func (t TenantSpec) input(scale float64) engine.Input {
	return engine.Input{Name: t.Name + "/in", Size: int64(t.blocks(scale)) * 64 * device.MiB}
}

// job builds the seq-th submission of this tenant class: a two-stage
// map/reduce job over the class's input. Inputs are shared per class
// (read-only); outputs are per job, so concurrent runs never collide in the
// DFS namespace.
func (t TenantSpec) job(seq int, scale float64) *job.JobSpec {
	blocks := t.blocks(scale)
	in := int64(blocks) * 64 * device.MiB
	name := fmt.Sprintf("%s-%d", t.Name, seq)
	return &job.JobSpec{
		Name:     name,
		Tenant:   t.Name,
		Priority: t.Priority,
		Stages: []*job.StageSpec{
			{ID: 0, Name: "map", InputFile: t.Name + "/in",
				CPUSecondsPerTask: 0.15, ShuffleWriteBytes: in / 2},
			{ID: 1, Name: "reduce", NumTasks: 2 * blocks, ShuffleFrom: []int{0},
				CPUSecondsPerTask: 0.1, OutputFile: name + "/out", OutputBytes: in / 4},
		},
	}
}

func (p ArrivalProcSpec) process() (arrival.Process, error) {
	switch p.Process {
	case "poisson":
		return arrival.Poisson{RatePerSec: p.Rate}, nil
	case "bursty":
		return arrival.Bursty{OnRate: p.OnRate, OffRate: p.OffRate, On: p.On, Off: p.Off}, nil
	case "diurnal":
		return arrival.Diurnal{Period: p.Period, Rates: p.Rates}, nil
	default:
		return nil, fmt.Errorf("arrival %s: unknown process %q", p.Name, p.Process)
	}
}

// planner builds the config's autoscale policy. Planners carry state (EWMAs,
// cooldown history), so every replay builds its own.
func (p ProvisionSpec) planner() (autoscale.Policy, error) {
	switch p.Policy {
	case "static":
		return autoscale.Static{}, nil
	case "reactive":
		return autoscale.DefaultReactive(), nil
	case "adaptive":
		return &autoscale.Adaptive{
			Alpha:           p.Alpha,
			DrainTarget:     p.DrainTarget,
			Headroom:        p.Headroom,
			MinSamplePeriod: p.MinSamplePeriod,
		}, nil
	default:
		return nil, fmt.Errorf("config %s: unknown autoscale policy %q", p.Name, p.Policy)
	}
}

// initialNodes is the config's starting fleet on a fleet of capacity nodes;
// "small" is a third of it, at least 2.
func (p ProvisionSpec) initialNodes(capacity int) (int, error) {
	switch p.Initial {
	case "small":
		return max((capacity+2)/3, 2), nil
	case "capacity":
		return capacity, nil
	}
	if n, err := strconv.Atoi(p.Initial); err == nil && n > 0 {
		return n, nil
	}
	return 0, fmt.Errorf("config %s: initial fleet %q is not small, capacity or a positive integer", p.Name, p.Initial)
}

// scaleCount scales a count stored at cluster scale 1, never below floor.
func scaleCount(n int, scale float64, floor int) int {
	return max(int(math.Round(float64(n)*scale)), floor)
}
