package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// resultFile is what -out appends to: every run of a set, each with its own
// environment stamp.
type resultFile struct {
	Schema string       `json:"schema"`
	Runs   []*runResult `json:"runs"`
}

const resultSchema = "sae-benchmark/v1"

var errRegressed = errors.New("regressed")

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

func appendResult(path string, r *runResult) error {
	f := &resultFile{Schema: resultSchema}
	if _, err := os.Stat(path); err == nil {
		if f, err = readResults(path); err != nil {
			return err
		}
	}
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// series is one (workload, metric) column of a result file: one value per
// run when the file holds several runs of the workload, the per-pass
// samples of its single run otherwise.
type series struct {
	values    []float64
	timed     int // T of the (last) run
	attempted int
	failed    int
}

func (f *resultFile) series(workload, metric string) series {
	var s series
	var runs []*runResult
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			runs = append(runs, r)
			s.attempted += r.Attempted
			s.failed += r.Failed
			s.timed = r.Timed
		}
	}
	for _, r := range runs {
		m := r.Metrics[metric]
		if len(runs) == 1 && len(m.Samples) > 1 {
			s.values = m.Samples
		} else {
			s.values = append(s.values, m.Value)
		}
	}
	return s
}

func (s series) failShare() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(v []float64) (q1, q2, q3 float64) {
	return cutPoint(v, 1, 4), cutPoint(v, 2, 4), cutPoint(v, 3, 4)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// sides' median and quartiles, the bound and a verdict, and returns
// errRegressed on any regression or any rise in fail_share. A pair whose
// run-to-run spread is wider than the bound is unresolved, not unchanged.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if ea, eb := firstEnv(a), firstEnv(b); ea.CPUModel != eb.CPUModel || ea.NumCPU != eb.NumCPU ||
		ea.GOMAXPROCS != eb.GOMAXPROCS || ea.GoVersion != eb.GoVersion {
		fmt.Fprintf(w, "warning: the two sets were measured in different environments (%s ×%d %s vs %s ×%d %s); absolute times do not compare\n",
			ea.CPUModel, ea.NumCPU, ea.GoVersion, eb.CPUModel, eb.NumCPU, eb.GoVersion)
	}
	fmt.Fprintf(w, "%-17s %-10s %4s %11s %11s %11s   %11s %11s %11s %8s %6s %7s  %s\n",
		"workload", "metric", "T", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "delta", "bound", "spread", "verdict")
	bad := false
	for _, wl := range workloads {
		sa, sb := a.series(wl.name, "wall_s"), b.series(wl.name, "wall_s")
		if len(sa.values) == 0 || len(sb.values) == 0 {
			fmt.Fprintf(w, "%-17s missing from one of the files\n", wl.name)
			bad = true
			continue
		}
		for _, d := range endToEnd {
			sa, sb := a.series(wl.name, d.name), b.series(wl.name, d.name)
			a1, a2, a3 := quartiles(sa.values)
			b1, b2, b3 := quartiles(sb.values)
			delta := (b2 - a2) / a2
			sp := max(spread(sa.values), spread(sb.values))
			verdict := "ok"
			switch {
			case sp > d.bound:
				verdict = "unresolved"
			case delta > d.bound:
				verdict = "regressed"
				bad = true
			}
			fmt.Fprintf(w, "%-17s %-10s %4d %11.5g %11.5g %11.5g   %11.5g %11.5g %11.5g %+7.2f%% %5.0f%% %6.2f%%  %s\n",
				wl.name, d.name, sb.timed, a1, a2, a3, b1, b2, b3, 100*delta, 100*d.bound, 100*sp, verdict)
		}
		fa, fb := sa.failShare(), sb.failShare()
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			bad = true
		}
		fmt.Fprintf(w, "%-17s %-10s %4s %11s %11.5g %11s   %11s %11.5g %11s %8s %6s %7s  %s\n",
			wl.name, "fail_share", "", "", fa, "", "", fb, "", "", "any", "", verdict)
	}
	if bad {
		return errRegressed
	}
	return nil
}

func firstEnv(f *resultFile) envStamp {
	if len(f.Runs) == 0 {
		return envStamp{}
	}
	return f.Runs[0].Env
}
