package scenario

import (
	"fmt"
	"maps"
	"slices"

	"sae/internal/chaos"
	"sae/internal/conf"
	"sae/internal/device"
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
	if disk, ok := disks[sp.Cluster.Disk]; ok {
		s.Disk = disk()
	}
	return s
}

// disks are the device models a spec's cluster disk names.
var disks = map[string]func() device.DiskSpec{"hdd": device.HDD7200, "ssd": device.SSDSata}

// catalogue is the conf catalogue at its defaults, made once per process:
// what a setup without a registry reads, cloned wherever one is needed.
var catalogue = conf.New()

// confCopy returns a copy of s's registry, or of the catalogue if s has none.
func confCopy(s exp.Setup) *conf.Registry {
	if s.Config != nil {
		return s.Config.Clone()
	}
	return catalogue.Clone()
}

// withScheduler returns s with scheduler.mode set to mode on a copy of its
// registry, leaving the caller's as it was. It is how a multi-job kind picks
// the inter-job scheduler of a run; Compile refuses the key in such a spec's
// conf and in the caller's, so the kind's choice is the only one.
func withScheduler(s exp.Setup, mode string) exp.Setup {
	s.Config = confCopy(s)
	// The callers pass FIFO or FAIR, the two values scheduler.mode accepts.
	_ = s.Config.Set("scheduler.mode", mode)
	return s
}

// Compiled is a scenario bound to a concrete setup, ready to run. The
// compile step resolves every name — workloads, policies, schedulers,
// chaos clauses, arrival processes, autoscale planners — so a spec's
// errors surface before anything runs.
type Compiled struct {
	Spec  *Spec
	Setup exp.Setup
	run   func() (fmt.Stringer, error)
}

// Compile binds the spec to a setup. Spec conf overrides are folded into a
// copy of the setup's registry without displacing values already set there,
// so CLI -conf flags win over the spec's conf block and the caller's
// registry is left as it was; what a run varies (its cell's
// policy, split size — see exp.Setup.Options) wins over both.
// The two multi-job kinds fix the inter-job scheduler of every run by
// setting scheduler.mode on a copy of that registry (withScheduler), so
// scheduler.mode in their conf is an error rather than silently overridden.
func (sp *Spec) Compile(s exp.Setup) (*Compiled, error) {
	if sp.Version != Version {
		return nil, fmt.Errorf("scenario %s: unsupported spec version %d (this build supports version %d)",
			sp.Name, sp.Version, Version)
	}
	if len(sp.Conf) > 0 {
		reg := confCopy(s)
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
	multiJob := sp.Kind == KindTenantMatrix || sp.Kind == KindArrivalMatrix
	if multiJob && s.Config != nil && s.Config.IsSet("scheduler.mode") {
		return nil, fmt.Errorf("scenario %s: conf scheduler.mode: kind %s fixes the inter-job scheduler of its runs", sp.Name, sp.Kind)
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

// Run executes the compiled scenario and returns its printable result: a
// *SingleResult, *ChaosResult, *TenantResult or *AutoscaleResult by kind.
// The matrix results implement exp.Tabular.
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
	Report *engine.JobReport
	Checks []Check
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
		sched, err := chaos.ParseSchedule(sp.Chaos)
		if err != nil {
			return err
		}
		if err := sched.CheckExecutors(s.Nodes); err != nil {
			return fmt.Errorf("field \"chaos\": %w", err)
		}
		// Single-run clauses are absolute-time (Parse enforces it), so the
		// quiet runtime the plan receives is irrelevant.
		s = s.WithFaults(sched.Plan(0, s.Seed))
	}
	c.run = func() (fmt.Stringer, error) {
		rep, err := s.Run(w, pol, nil)
		if err != nil {
			return nil, err
		}
		res := &SingleResult{Report: rep}
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

func policiesByName(names []string) ([]job.Policy, error) {
	out := make([]job.Policy, len(names))
	for i, name := range names {
		var err error
		if out[i], err = exp.PolicyByName(name); err != nil {
			return nil, err
		}
	}
	return out, nil
}
