// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the simulator's public functions and hooks, five gated
// end-to-end metrics plus a failure count, and a separate traced run that
// attributes host time and work counts to layers. See README.md beside this
// file for the workloads, the metrics and how they interact.
//
// Usage:
//
//	go run ./benchmark -workload NAME|all [-seed 7] [-seconds 18] [-trace 0|1]
//	                   [-trace-out FILE] [-out FILE] [-short] [-write-expected]
//	go run ./benchmark -compare A.json B.json
//
// One process measures one workload; `all` re-invokes this binary once per
// workload so no workload inherits another's heap. The last line of
// standard output is one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// The exit code is non-zero when any unit failed.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeed is the seed CI uses everywhere, and the only one
// expected.json freezes outputs for.
const defaultSeed = 7

// defaultSeconds is the measuring budget of a run, BENCHMARK.json's
// run_seconds. On the reference box it yields each workload's minimum timed
// pass count, more on a faster one.
const defaultSeconds = 18

// expectedPath is where -write-expected writes, relative to the repository
// root it must be run from.
const expectedPath = "benchmark/expected.json"

//go:embed expected.json
var expectedJSON []byte

var errUnitsFailed = errors.New("units failed")

func main() {
	err := run(os.Args[1:])
	switch {
	case err == nil:
	case errors.Is(err, errUnitsFailed) || errors.Is(err, errRegressed):
		os.Exit(1)
	case errors.Is(err, flag.ErrHelp):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper_sweep|goldens_observed|wide_cluster|hunt_smoke|all")
	seed := fs.Int64("seed", defaultSeed, "seed for every generated input (node variability, chaos plans, hunt corpus)")
	seconds := fs.Float64("seconds", defaultSeconds, "keep taking timed passes until this much has been measured (each workload also has a minimum pass count)")
	trace := fs.Int("trace", 0, "1 runs the traced, layer-attributed run and prints the per-layer metrics instead")
	traced := fs.Bool("traced", false, "same as -trace 1")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	out := fs.String("out", "", "append this run's full result (environment stamp, per-pass samples) to this JSON file")
	short := fs.Bool("short", false, "smoke size (scale 0.02, 16-node wide): fast, not comparable with anything")
	writeExpected := fs.Bool("write-expected", false, "freeze this run's outputs into "+expectedPath+" (seed 7, full size only)")
	compare := fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs exactly two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *name == "all" {
		return runAll(fs)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want paper_sweep, goldens_observed, wide_cluster, hunt_smoke or all)", *name)
	}

	cfg := config{seed: *seed, seconds: *seconds, size: fullSize, short: *short}
	if *short {
		cfg.size = shortSize
	}
	frozen := cfg.seed == defaultSeed && !cfg.short
	if *writeExpected && !frozen {
		return fmt.Errorf("-write-expected freezes seed %d at full size only", defaultSeed)
	}
	if frozen && !*writeExpected {
		if err := json.Unmarshal(expectedJSON, &cfg.expected); err != nil {
			return fmt.Errorf("embedded expected.json: %w", err)
		}
	}
	runtime.GOMAXPROCS(pinnedProcs)

	var res *runResult
	var fingerprints map[string]string
	if *trace == 1 || *traced {
		r, recs, err := runTraced(w, cfg)
		if err != nil {
			return err
		}
		res = r
		if *traceOut != "" {
			if err := writeSpans(*traceOut, recs); err != nil {
				return err
			}
		}
	} else {
		r, chk, err := runUntraced(w, cfg)
		if err != nil {
			return err
		}
		res, fingerprints = r, chk.fingerprints()
	}

	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	res.print(defs)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			return err
		}
	}
	if *writeExpected {
		if res.Traced || !res.Correct {
			return errors.New("-write-expected needs a clean untraced run")
		}
		if err := mergeExpected(w.name, fingerprints); err != nil {
			return err
		}
	}
	if err := res.writeDriverLine(os.Stdout, defs); err != nil {
		return err
	}
	return res.err()
}

// runAll re-invokes this binary once per workload, one after the other, so
// each is measured in a fresh process. A -trace-out name gets the workload
// inserted before its extension.
func runAll(fs *flag.FlagSet) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, w := range workloads {
		child := []string{"-workload=" + w.name}
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload":
			case "trace-out":
				child = append(child, "-trace-out="+insertBeforeExt(f.Value.String(), w.name))
			default:
				child = append(child, "-"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(self, child...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			failed = true
		}
	}
	if failed {
		return errUnitsFailed
	}
	return nil
}

func insertBeforeExt(path, name string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + name + ext
}

// writeDriverLine writes the line the driver parses: exactly the keys
// correct, attempted, failed and metrics, and under metrics exactly the
// declared set for this mode.
func (r *runResult) writeDriverLine(w io.Writer, defs []metricDef) error {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metricValue{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricValue{Value: m.Value, Unit: m.Unit} // without the samples
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mergeExpected replaces one workload's table in expected.json, leaving the
// other workloads' tables as they are.
func mergeExpected(workload string, table map[string]string) error {
	all := map[string]map[string]string{}
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return fmt.Errorf("-write-expected must run from the repository root: %w", err)
	}
	if err := json.Unmarshal(data, &all); err != nil {
		return fmt.Errorf("%s: %w", expectedPath, err)
	}
	all[workload] = table
	data, err = json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}
