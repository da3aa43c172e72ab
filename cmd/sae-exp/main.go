// Command sae-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	sae-exp [-scale F] [-nodes N] [-ssd] [-seed S] [-audit]
//	        [-scenario FILE]... [experiment ...]
//
// With no arguments it runs every experiment in order. Valid experiment IDs
// are table1, table2 and fig1 … fig12 plus the extension experiments
// (sae-exp -list, which also enumerates the committed scenarios/*.yaml
// specs; they are embedded in the binary, and faults, grayfail, multitenant
// and autoscale run them). Experiments run one after another, each running
// its independent engine runs side by side on up to GOMAXPROCS processors;
// every run owns its own simulation kernel, so stdout is a function of the
// flags alone (wall-clock timings go to stderr).
//
// -scenario (repeatable) appends declarative scenario specs to the sweep;
// they run after the experiments and go through the same -csv export. The
// spec's cluster block supplies scale/nodes/seed; -scale, -nodes and -seed
// override it only when given explicitly on the command line, so
// `sae-exp -scale 0.05 -seed 7 -scenario scenarios/autoscale.yaml` prints
// what `sae-exp -scale 0.05 -seed 7 autoscale` prints.
//
// -audit attaches the invariant audit plane (internal/invariant) to every
// run in the sweep. The auditor accumulates sequential per-run state, so
// an audited experiment runs its runs in order; violations print to stderr
// and exit non-zero, while the report stream stays byte-identical (the
// audit plane never perturbs a run).
//
// For performance work, -cpuprofile/-memprofile/-exectrace write pprof CPU
// and heap profiles and a Go execution trace covering the whole sweep.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sae"
	"sae/internal/exp"
	"sae/internal/invariant"
	"sae/internal/prof"
	"sae/internal/scenario"
	"sae/scenarios"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sae-exp:", err)
		os.Exit(exp.ExitCode(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sae-exp", flag.ContinueOnError)
	scale := fs.Float64("scale", 1, "data scale relative to the paper (1 = full size)")
	nodes := fs.Int("nodes", 4, "cluster size")
	ssd := fs.Bool("ssd", false, "use the SSD device model instead of HDDs")
	seed := fs.Int64("seed", 1, "node-variability seed")
	list := fs.Bool("list", false, "list experiments and exit")
	csvDir := fs.String("csv", "", "also export each artifact's data series as CSV under this directory")
	audit := fs.Bool("audit", false, "attach the invariant audit plane to every run (each experiment then runs its runs in order); violations print to stderr and exit non-zero")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	exectrace := fs.String("exectrace", "", "write a Go execution trace to this file")
	var scenarioFiles multiFlag
	fs.Var(&scenarioFiles, "scenario", "run the scenario spec at this path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		// The workloads read a non-positive scale as "unset": full size; NaN
		// and +Inf reach the file system as a negative size.
		return fmt.Errorf("%w: -scale %v, want a positive finite factor", exp.ErrBadFlag, *scale)
	}

	if *list {
		exps := sae.Experiments()
		for _, id := range sae.ExperimentIDs() {
			fmt.Printf("%-12s %s\n", id, exps[id].Title)
		}
		listScenarios()
		return nil
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		return err
	}
	defer func() { _ = stopProf() }()

	setup := sae.DAS5().WithScale(*scale).WithNodes(*nodes)
	setup.Seed = *seed
	if *ssd {
		setup = setup.WithSSD()
	}
	var aud *invariant.Auditor
	if *audit {
		aud = invariant.New()
		setup.Audit = aud
	}

	ids := fs.Args()
	if len(ids) == 0 && len(scenarioFiles) == 0 {
		ids = sae.ExperimentIDs()
	}
	exps := sae.Experiments()
	type artifact struct {
		id  string
		run func() (fmt.Stringer, error)
	}
	var arts []artifact
	for _, id := range ids {
		e, ok := exps[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(sae.ExperimentIDs(), ", "))
		}
		arts = append(arts, artifact{id, func() (fmt.Stringer, error) { return e.Run(setup) }})
	}
	// Explicit cluster flags override each spec's cluster block; the spec
	// wins over flag defaults, mirroring sae-run -scenario.
	visited := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { visited[f.Name] = true })
	for _, path := range scenarioFiles {
		sp, err := scenario.Load(path)
		if err != nil {
			return err
		}
		s := sp.BaseSetup()
		if visited["scale"] {
			s = s.WithScale(*scale)
		}
		if visited["nodes"] {
			s = s.WithNodes(*nodes)
		}
		if visited["seed"] {
			s.Seed = *seed
		}
		if *ssd {
			s = s.WithSSD()
		}
		if aud != nil {
			s.Audit = aud
		}
		c, err := sp.Compile(s)
		if err != nil {
			return err
		}
		for _, kv := range c.Setup.Config.Unmodelled() {
			fmt.Fprintf(os.Stderr, "sae-exp: %s: conf %s is not modelled: the run ignores it\n", sp.Name, kv)
		}
		arts = append(arts, artifact{sp.Name, c.Run})
	}

	var failed []string
	for _, a := range arts {
		start := time.Now()
		res, err := a.run()
		wall := time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: %w", a.id, err)
		}
		fmt.Print(res)
		if f, ok := res.(interface{ Failures() []string }); ok {
			for _, msg := range f.Failures() {
				failed = append(failed, fmt.Sprintf("%s: %s", a.id, msg))
			}
		}
		if *csvDir != "" {
			if tab, ok := res.(exp.Tabular); ok {
				if err := exp.WriteCSV(filepath.Join(*csvDir, a.id), tab); err != nil {
					return err
				}
			}
		}
		// Wall times go to stderr: stdout is a function of the seed alone.
		fmt.Fprintf(os.Stderr, "  [%s regenerated in %.2fs wall time]\n", a.id, wall.Seconds())
		fmt.Println()
	}
	if aud != nil {
		if vs := aud.Violations(); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintln(os.Stderr, "sae-exp: invariant:", v)
			}
			return fmt.Errorf("%d invariant violation(s)", len(vs))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d scenario expectation(s) failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

// listScenarios appends the committed scenario specs to the -list output.
// They come from the embedded copy, so the listing does not depend on the
// working directory.
func listScenarios() {
	entries, _ := scenarios.FS.ReadDir(".")
	for _, e := range entries {
		path := "scenarios/" + e.Name()
		data, _ := scenarios.FS.ReadFile(e.Name())
		sp, err := scenario.Parse(path, data)
		if err != nil {
			fmt.Printf("%-12s (invalid: %v)\n", path, err)
			continue
		}
		fmt.Printf("%-12s [%s] %s\n", path, sp.Kind, sp.Description)
	}
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
