// Command sae-run executes one workload under one executor sizing policy on
// the simulated cluster and prints the run report.
//
// Usage:
//
//	sae-run [-workload terasort] [-policy dynamic]
//	        [-scale F] [-nodes N] [-seed S] [-ssd] [-decisions] [-faults SPEC]
//	        [-scenario FILE] [-audit]
//	        [-trace FILE] [-metrics FILE] [-metrics-csv FILE]
//	        [-prom FILE] [-metrics-interval D]
//
// There is one run path. Without -scenario the flags are a spec of kind
// single — -workload names it and its workload, -policy (default | static |
// static:N | dynamic, the names a spec file takes) is its policy and -faults
// its chaos — checked as a spec file is checked and run as one: the same
// flags and the equivalent file print the same run.
//
// -scenario runs a declarative scenario spec (scenarios/*.yaml) instead of
// the -workload/-policy/-faults flags, which are rejected alongside it.
// The spec's cluster block supplies scale/nodes/seed; -scale, -nodes and
// -seed override it only when given explicitly, and -conf overrides beat
// the spec's conf block. A spec with an expect block exits non-zero when
// any assertion fails. -decisions prints the MAPE-K decision log of a
// single run, from the flags or a single-kind spec.
//
// -audit attaches the invariant audit plane (slot and byte conservation,
// exactly-once shuffle, epoch and failure-detector legality — see
// internal/invariant): violations print to stderr and the run exits
// non-zero. Attaching it never perturbs the run or its exports.
//
// -faults applies a deterministic chaos schedule, e.g. "crash@90s" (kill
// executor 1 at t=90s), "crash2@2m+30s" (kill executor 2 at 2m, restart 30s
// later), "flaky:0.02", "fetch:0.1", "mayhem@10m", combined with commas.
// The grammar is chaos.Schedule's (internal/chaos), with absolute times; its
// fault dice are seeded by -seed, as a spec's by cluster.seed, unless the
// schedule names its own seed:N.
//
// Observability: -trace writes the engine event log (each run's part starts
// with a versioned header; events carry job→stage→task spans);
// -metrics/-metrics-csv/-prom export the telemetry registry as JSONL or CSV
// time series and Prometheus text exposition, sampled every
// -metrics-interval of virtual time. All exports are deterministic:
// same-seed runs produce byte-identical files. Feed the trace and metrics
// dump to sae-trace for critical-path and utilization analysis.
//
// For performance work, -cpuprofile/-memprofile write pprof CPU and heap
// profiles and -exectrace a Go execution trace (the runtime kind, named as
// in sae-exp; -trace is the engine event log).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"sae/internal/conf"
	"sae/internal/exp"
	"sae/internal/invariant"
	"sae/internal/prof"
	"sae/internal/scenario"
	"sae/internal/telemetry"
	"sae/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sae-run:", err)
		os.Exit(exp.ExitCode(err))
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("sae-run", flag.ContinueOnError)
	workload := fs.String("workload", "terasort", "workload: "+strings.Join(workloads.Names(), "|"))
	policy := fs.String("policy", "dynamic", "sizing policy: default|static|static:N|dynamic")
	scale := fs.Float64("scale", 1, "data scale relative to the paper")
	nodes := fs.Int("nodes", 4, "cluster size")
	seed := fs.Int64("seed", 1, "node-variability seed")
	ssd := fs.Bool("ssd", false, "use the SSD device model")
	scenarioFile := fs.String("scenario", "", "run the scenario spec at this path instead of -workload/-policy")
	audit := fs.Bool("audit", false, "attach the invariant audit plane; violations print to stderr and exit non-zero")
	decisions := fs.Bool("decisions", false, "print the MAPE-K decision log")
	var confFlags multiFlag
	fs.Var(&confFlags, "conf", "configuration override key=value (repeatable, e.g. -conf speculation=true)")
	traceFile := fs.String("trace", "", "write the engine event log (JSON lines) to this file")
	metricsFile := fs.String("metrics", "", "write the telemetry time-series dump (JSON lines) to this file")
	metricsCSV := fs.String("metrics-csv", "", "write the telemetry time-series dump as CSV to this file")
	promFile := fs.String("prom", "", "write end-of-run metrics in Prometheus text exposition to this file")
	metricsInterval := fs.Duration("metrics-interval", 0, "telemetry sampler period in virtual time (0 selects 5s)")
	faults := fs.String("faults", "", "chaos schedule, e.g. crash@90s,flaky:0.02 (grammar: chaos.Schedule in internal/chaos, absolute times)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	exectrace := fs.String("exectrace", "", "write a Go execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		// The workloads read a non-positive scale as "unset": full size; NaN
		// and +Inf reach the file system as a negative size.
		return fmt.Errorf("%w: -scale %v, want a positive finite factor", exp.ErrBadFlag, *scale)
	}
	if *metricsInterval != 0 && *metricsInterval < 100*time.Millisecond {
		// The sampler fires once per interval of virtual time: a nanosecond
		// one never lets the clock reach the job's end.
		return fmt.Errorf("%w: -metrics-interval %v, want 0 (5s) or at least 100ms", exp.ErrBadFlag, *metricsInterval)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		return err
	}
	defer func() { _ = stopProf() }()

	visited := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { visited[f.Name] = true })

	var sp *scenario.Spec
	if *scenarioFile != "" {
		for _, name := range []string{"workload", "policy", "faults"} {
			if visited[name] {
				return fmt.Errorf("-%s cannot be combined with -scenario (the spec supplies it)", name)
			}
		}
		sp, err = scenario.Load(*scenarioFile)
	} else {
		sp, err = flagSpec(*workload, *policy, *faults)
	}
	if err != nil {
		return err
	}
	if *decisions && sp.Kind != scenario.KindSingle {
		return fmt.Errorf("-decisions needs a single-kind spec, %s is kind %s", *scenarioFile, sp.Kind)
	}
	// The flags are a single spec without a cluster block, so every cluster
	// flag applies; over a spec file's cluster block only explicit ones do.
	explicit := func(name string) bool { return *scenarioFile == "" || visited[name] }
	setup := sp.BaseSetup()
	if explicit("scale") {
		setup = setup.WithScale(*scale)
	}
	if explicit("nodes") {
		setup = setup.WithNodes(*nodes)
	}
	if explicit("seed") {
		setup.Seed = *seed
	}
	if *ssd {
		setup = setup.WithSSD()
	}
	if len(confFlags) > 0 {
		reg := conf.New()
		for _, kv := range confFlags {
			k, v, err := conf.ParseFlag(kv)
			if err != nil {
				return err
			}
			if err := reg.Set(k, v); err != nil {
				return err
			}
		}
		setup.Config = reg
	}
	if *traceFile != "" {
		f, ferr := os.Create(*traceFile)
		if ferr != nil {
			return ferr
		}
		// The engine issues one Write per event; buffer them here so each is
		// not a write(2), and report a failed flush of the last events.
		bw := bufio.NewWriter(f)
		setup.Trace = bw
		defer func() {
			if cerr := errors.Join(bw.Flush(), f.Close()); err == nil && cerr != nil {
				err = fmt.Errorf("trace log: %w", cerr)
			}
		}()
	}
	var reg *telemetry.Registry
	if *metricsFile != "" || *metricsCSV != "" || *promFile != "" {
		reg = telemetry.NewRegistry()
		setup.Metrics = reg
		setup.MetricsInterval = *metricsInterval
	}
	var aud *invariant.Auditor
	if *audit {
		aud = invariant.New()
		setup.Audit = aud
	}
	c, err := sp.Compile(setup)
	if err != nil {
		return err
	}
	for _, kv := range c.Setup.Config.Unmodelled() {
		fmt.Fprintf(os.Stderr, "sae-run: conf %s is not modelled: the run ignores it\n", kv)
	}
	res, err := c.Run()
	if err != nil {
		return err
	}
	if reg != nil {
		if err := exportMetrics(reg, *metricsFile, *metricsCSV, *promFile); err != nil {
			return err
		}
	}
	fmt.Print(res)
	single, _ := res.(*scenario.SingleResult)
	if single != nil {
		rep := single.Report
		if *faults != "" && rep.LostExecutors == 0 && rep.ResubmittedStages == 0 && rep.RecoveredBytes == 0 {
			// The report prints a faults line itself whenever recovery
			// activity happened; confirm the quiet case explicitly.
			fmt.Println("  faults: schedule applied, no executors lost and no stages resubmitted")
		}
		if *decisions {
			for exec, ds := range rep.Decisions {
				for _, d := range ds {
					fmt.Printf("  executor %d, stage %d @%7.1fs → %2d threads: %s\n",
						exec, d.Stage, d.At.Seconds(), d.Threads, d.Reason())
				}
			}
		}
	}
	if err := auditVerdict(aud); err != nil || single == nil {
		return err
	}
	if fails := single.Failures(); len(fails) > 0 {
		return fmt.Errorf("scenario %s: %d expectation(s) failed: %s", sp.Name, len(fails), strings.Join(fails, "; "))
	}
	return nil
}

// flagSpec is the single-kind spec the -workload, -policy and -faults flags
// describe, passed through a Marshal∘Parse round trip so the flags meet the
// validation a spec file meets.
func flagSpec(workload, policy, faults string) (*scenario.Spec, error) {
	sp := &scenario.Spec{Version: scenario.Version, Name: workload, Kind: scenario.KindSingle,
		Workload: workload, Policy: policy, Chaos: faults}
	return scenario.Parse("flags", scenario.Marshal(sp))
}

// auditVerdict reports the attached auditor's violations (nil auditor or a
// clean run verdicts nil). Violations go to stderr so they never disturb
// the report stream golden files compare.
func auditVerdict(aud *invariant.Auditor) error {
	if aud == nil {
		return nil
	}
	vs := aud.Violations()
	if len(vs) == 0 {
		return nil
	}
	for _, v := range vs {
		fmt.Fprintln(os.Stderr, "sae-run: invariant:", v)
	}
	return fmt.Errorf("%d invariant violation(s)", len(vs))
}

// exportMetrics writes the run's telemetry registry to the requested files.
func exportMetrics(reg *telemetry.Registry, jsonl, csv, prom string) error {
	write := func(path string, dump func(*os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := dump(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(jsonl, func(f *os.File) error { return reg.WriteJSONL(f) }); err != nil {
		return err
	}
	if err := write(csv, func(f *os.File) error { return reg.WriteCSV(f) }); err != nil {
		return err
	}
	return write(prom, func(f *os.File) error { return reg.WritePrometheus(f) })
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
