package scenario

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	"sae/internal/arrival"
	"sae/internal/autoscale"
	"sae/internal/chaos"
	"sae/internal/conf"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/exp"
	"sae/internal/workloads"
)

// BaseSetup returns the exp.Setup the spec's cluster block describes.
// Unset fields inherit the paper defaults (4 nodes, scale 1, seed 1, HDD);
// callers typically layer explicit CLI overrides on top of the result.
func (sp *Spec) BaseSetup() exp.Setup {
	s := exp.Default()
	if sp.Cluster.Nodes > 0 {
		s.Nodes = sp.Cluster.Nodes
	}
	if sp.Cluster.Scale > 0 {
		s.Scale = sp.Cluster.Scale
	}
	if sp.Cluster.Seed != 0 {
		s.Seed = sp.Cluster.Seed
	}
	if sp.Cluster.Disk == "ssd" {
		s = s.WithSSD()
	}
	return s
}

// Compiled is a scenario bound to a concrete setup, ready to run. The
// compile step resolves every name — workloads, policies, schedulers,
// chaos clauses, arrival processes — into exp.Runner matrix inputs.
type Compiled struct {
	Spec  *Spec
	Setup exp.Setup
	run   func() (fmt.Stringer, error)
}

// Compile binds the spec to a setup. Spec conf overrides are folded into
// the setup's registry without displacing values already set there, so CLI
// -conf flags win over the spec's conf block.
func (sp *Spec) Compile(s exp.Setup) (*Compiled, error) {
	if sp.Version != Version {
		return nil, fmt.Errorf("scenario %s: unsupported spec version %d (this build supports version %d)",
			sp.Name, sp.Version, Version)
	}
	if len(sp.Conf) > 0 {
		reg := s.Config
		if reg == nil {
			reg = conf.New()
		}
		for _, k := range slices.Sorted(maps.Keys(sp.Conf)) {
			if reg.IsSet(k) {
				continue
			}
			if err := reg.Set(k, sp.Conf[k]); err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
			}
		}
		s.Config = reg
	}
	c := &Compiled{Spec: sp, Setup: s}
	var err error
	switch sp.Kind {
	case KindSingle:
		err = c.compileSingle()
	case KindChaosMatrix:
		err = c.compileChaosMatrix()
	case KindTenantMatrix:
		err = c.compileTenantMatrix()
	case KindArrivalMatrix:
		err = c.compileArrivalMatrix()
	default:
		err = fmt.Errorf("unknown kind %q", sp.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	return c, nil
}

// Run executes the compiled scenario and returns its printable result.
// Matrix kinds return the exp result types (*exp.FaultsResult and so on,
// implementing exp.Tabular); the single kind returns a *SingleResult.
func (c *Compiled) Run() (fmt.Stringer, error) {
	return c.run()
}

func (c *Compiled) workloadConfig() workloads.Config {
	return workloads.Config{Nodes: c.Setup.Nodes, Scale: c.Setup.Scale}
}

// Check is one expect-assertion verdict of a single run.
type Check struct {
	// Name is the expect-assertion key ("max_runtime_sec", ...) — the
	// metric being asserted.
	Name   string
	OK     bool
	Detail string
	// Observed and Threshold are the structured form of the comparison:
	// the measured value and the spec's bound, in the assertion's own
	// unit (seconds, executors, GiB).
	Observed  float64
	Threshold float64
}

// SingleResult is a single scenario run: the engine report plus the
// expect-assertion verdicts.
type SingleResult struct {
	Scenario string
	Report   *engine.JobReport
	Checks   []Check
}

// Failures lists the failed assertions (empty on a passing run), naming
// for each the metric, the observed value, and the threshold it broke.
func (r *SingleResult) Failures() []string {
	var out []string
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, fmt.Sprintf("assertion %s failed: observed %g, threshold %g (%s)",
				c.Name, c.Observed, c.Threshold, c.Detail))
		}
	}
	return out
}

func (r *SingleResult) String() string {
	s := r.Report.String()
	for _, c := range r.Checks {
		verdict := "pass"
		if !c.OK {
			verdict = "FAIL"
		}
		s += fmt.Sprintf("  expect %s: %s (%s)\n", c.Name, verdict, c.Detail)
	}
	return s
}

func (c *Compiled) compileSingle() error {
	sp := c.Spec
	w, err := workloads.ByName(sp.Workload, c.workloadConfig())
	if err != nil {
		return err
	}
	pol, err := exp.PolicyByName(sp.Policy)
	if err != nil {
		return err
	}
	s := c.Setup
	if sp.Chaos != "" {
		gen, err := parseScheduleSpec(sp.Chaos)
		if err != nil {
			return err
		}
		// Single-run clauses are absolute-time (Parse enforces it), so the
		// quiet runtime the generator receives is irrelevant.
		s = s.WithFaults(gen(0, s.Seed))
	}
	c.run = func() (fmt.Stringer, error) {
		rep, err := s.Run(w, pol, nil)
		if err != nil {
			return nil, err
		}
		res := &SingleResult{Scenario: sp.Name, Report: rep}
		if e := sp.Expect; e != nil {
			if e.MaxRuntimeSec > 0 {
				sec := rep.Runtime.Seconds()
				res.Checks = append(res.Checks, Check{
					Name: "max_runtime_sec", OK: sec <= e.MaxRuntimeSec,
					Detail:   fmt.Sprintf("runtime %.1fs, limit %.1fs", sec, e.MaxRuntimeSec),
					Observed: sec, Threshold: e.MaxRuntimeSec,
				})
			}
			if e.MaxLostExecutors != nil {
				res.Checks = append(res.Checks, Check{
					Name: "max_lost_executors", OK: rep.LostExecutors <= *e.MaxLostExecutors,
					Detail:   fmt.Sprintf("lost %d, limit %d", rep.LostExecutors, *e.MaxLostExecutors),
					Observed: float64(rep.LostExecutors), Threshold: float64(*e.MaxLostExecutors),
				})
			}
			if e.MinRecoveredGiB > 0 {
				got := workloads.GiB(rep.RecoveredBytes)
				res.Checks = append(res.Checks, Check{
					Name: "min_recovered_gib", OK: got >= e.MinRecoveredGiB,
					Detail:   fmt.Sprintf("recovered %.2f GiB, floor %.2f GiB", got, e.MinRecoveredGiB),
					Observed: got, Threshold: e.MinRecoveredGiB,
				})
			}
		}
		// A setup carrying an auditor folds expect/SLO breaches into the
		// same violation stream as the structural invariants, so the
		// chaos hunter treats both uniformly.
		if fl, ok := s.Audit.(interface{ Flag(rule, detail string) }); ok {
			for _, ch := range res.Checks {
				if !ch.OK {
					fl.Flag("expect:"+ch.Name, ch.Detail)
				}
			}
		}
		return res, nil
	}
	return nil
}

func (c *Compiled) compileChaosMatrix() error {
	sp := c.Spec
	w, err := workloads.ByName(sp.Workload, c.workloadConfig())
	if err != nil {
		return err
	}
	policies, err := c.policies(sp.Policies)
	if err != nil {
		return err
	}
	gens := make([]scheduleGen, len(sp.Schedules))
	for i, s := range sp.Schedules {
		if gens[i], err = parseScheduleSpec(s); err != nil {
			return fmt.Errorf("schedules[%d]: %w", i, err)
		}
	}
	s := c.Setup
	seed := s.Seed
	schedules := func(quiet time.Duration) []*chaos.Plan {
		plans := make([]*chaos.Plan, len(gens))
		for i, gen := range gens {
			plans[i] = gen(quiet, seed)
		}
		return plans
	}
	report := sp.Report
	c.run = func() (fmt.Stringer, error) {
		cells, err := exp.Runner{Setup: s, Label: sp.Name}.ChaosMatrix(w, policies, schedules)
		if err != nil {
			return nil, err
		}
		if report == "grayfail" {
			return exp.NewGrayFailResult(cells), nil
		}
		return exp.NewFaultsResult(cells), nil
	}
	return nil
}

func (c *Compiled) compileTenantMatrix() error {
	sp := c.Spec
	cfg := c.workloadConfig()
	// Resolve every workload name up front; Make closures then rebuild
	// fresh specs per run.
	mixes := make([]exp.Mix, len(sp.Mixes))
	for i, m := range sp.Mixes {
		names := m.Workloads
		for _, name := range names {
			if _, err := workloads.ByName(name, cfg); err != nil {
				return fmt.Errorf("mix %s: %w", m.Name, err)
			}
		}
		mixes[i] = exp.Mix{Name: m.Name, Make: func() []*workloads.Spec {
			ws := make([]*workloads.Spec, len(names))
			for j, name := range names {
				ws[j], _ = workloads.ByName(name, cfg)
			}
			return ws
		}}
	}
	scheds := make([]engine.InterJobPolicy, len(sp.Schedulers))
	for i, name := range sp.Schedulers {
		var err error
		if scheds[i], err = exp.SchedulerByName(name); err != nil {
			return err
		}
	}
	policies, err := c.policies(sp.Policies)
	if err != nil {
		return err
	}
	s := c.Setup
	c.run = func() (fmt.Stringer, error) {
		cells, err := exp.Runner{Setup: s, Label: sp.Name}.TenantMatrix(mixes, scheds, policies)
		if err != nil {
			return nil, err
		}
		return exp.NewMultiTenantResult(cells), nil
	}
	return nil
}

func (c *Compiled) compileArrivalMatrix() error {
	sp := c.Spec
	m := sp.Arrival
	if m == nil {
		return fmt.Errorf("arrival-matrix spec has no arrival block")
	}
	s := c.Setup
	n, perNode, err := parseCapacity(m.Capacity)
	if err != nil {
		return fmt.Errorf("capacity: %w", err)
	}
	capacity := n
	if perNode {
		capacity = n * s.Nodes
	}
	small := (capacity + 2) / 3
	if small < 2 {
		small = 2
	}

	em := exp.ArrivalMatrix{
		Capacity:  capacity,
		Horizon:   m.Horizon,
		MaxJobs:   exp.ScaleCount(m.MaxJobs, s.Scale, max(m.MinJobs, 1)),
		SLOFactor: m.SLO.Factor,
		Baseline:  m.SLO.Baseline,
	}
	for _, t := range m.Tenants {
		em.Tenants = append(em.Tenants, exp.ArrivalTenant{
			Class:  arrival.Class{Name: t.Name, Weight: t.Weight, Priority: t.Priority},
			Blocks: exp.ScaleCount(t.Blocks, s.Scale, max(t.MinBlocks, 1)),
		})
	}
	for _, p := range m.Arrivals {
		proc, err := buildProcess(p)
		if err != nil {
			return err
		}
		em.Scenarios = append(em.Scenarios, exp.ArrivalScenario{Name: p.Name, Proc: proc})
	}
	for _, cfgSpec := range m.Configs {
		cfg, err := buildProvision(cfgSpec, capacity, small)
		if err != nil {
			return err
		}
		em.Configs = append(em.Configs, cfg)
	}
	c.run = func() (fmt.Stringer, error) {
		return exp.Runner{Setup: s, Label: sp.Name}.ArrivalMatrix(em)
	}
	return nil
}

func buildProcess(p ArrivalProcSpec) (arrival.Process, error) {
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

func buildProvision(c ProvisionSpec, capacity, small int) (exp.ArrivalConfig, error) {
	cfg := exp.ArrivalConfig{Name: c.Name}
	switch c.Initial {
	case "small":
		cfg.Initial = small
	case "capacity":
		cfg.Initial = capacity
	default:
		cfg.Initial, _ = strconv.Atoi(c.Initial) // validate checked it is a positive integer
	}
	switch c.Policy {
	case "static":
		cfg.Policy = func() autoscale.Policy { return autoscale.Static{} }
	case "reactive":
		cfg.Policy = func() autoscale.Policy { return autoscale.DefaultReactive() }
	case "adaptive":
		alpha, drain, headroom, sample := c.Alpha, c.DrainTarget, c.Headroom, c.MinSamplePeriod
		cfg.Policy = func() autoscale.Policy {
			return &autoscale.Adaptive{
				Alpha:           alpha,
				DrainTarget:     drain,
				Headroom:        headroom,
				MinSamplePeriod: sample,
			}
		}
	default:
		return cfg, fmt.Errorf("config %s: unknown autoscale policy %q", c.Name, c.Policy)
	}
	return cfg, nil
}

func (c *Compiled) policies(names []string) ([]job.Policy, error) {
	out := make([]job.Policy, len(names))
	for i, name := range names {
		var err error
		if out[i], err = exp.PolicyByName(name); err != nil {
			return nil, err
		}
	}
	return out, nil
}
