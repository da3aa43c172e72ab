package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sae"
	"sae/internal/engine"
	"sae/internal/scenario"
	"sae/internal/telemetry"
)

func readAnalysis(t *testing.T, r io.Reader) *analysis {
	t.Helper()
	_, events, err := engine.ReadTraceWithHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	return analyze(events)
}

// writeRun executes a small terasort run and writes its trace (and metrics,
// when reg is non-nil) to files under dir, returning the trace path.
func writeRun(t *testing.T, dir string, reg *telemetry.Registry) string {
	t.Helper()
	setup := sae.DAS5().WithScale(0.01)
	var buf bytes.Buffer
	setup.Trace = &buf
	setup.Metrics = reg
	w, err := sae.WorkloadByName("terasort", sae.WorkloadConfig{Nodes: 4, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sae.Run(setup, w, sae.Adaptive()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAnalyzeV2Trace(t *testing.T) {
	dir := t.TempDir()
	path := writeRun(t, dir, nil)

	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"(v2, flat+spans)",
		"critical path (job 0 \"terasort\"",
		"stage gantt",
		"executor utilization",
		"stage 0 sample",
		"exec  0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestAnalyzeV1Trace analyzes a run's log as a pre-v2 writer wrote it:
// encoding/json over TraceEvent, with no header and no spans.
func TestAnalyzeV1Trace(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(writeRun(t, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	events, err := engine.ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	enc := json.NewEncoder(&legacy)
	for _, ev := range events {
		ev.Span, ev.Parent = 0, 0
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "legacy.jsonl")
	if err := os.WriteFile(path, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "(v1, flat)") {
		t.Errorf("v1 trace not recognized:\n%s", got)
	}
	if !strings.Contains(got, "critical path") {
		t.Errorf("no critical path section:\n%s", got)
	}
}

// TestMultiRunLogAnalyzedPerRun: a chaos matrix appends its runs to one log,
// each starting with its own header and its own job 0. Each run must be
// analyzed on its own, its makespan its report's runtime.
func TestMultiRunLogAnalyzedPerRun(t *testing.T) {
	sp, err := scenario.Parse("two-runs", []byte(`version: 1
name: two-runs
kind: chaos-matrix
cluster:
  nodes: 4
  scale: 0.02
  seed: 7
workload: terasort
policies: [dynamic]
schedules: [quiet, crash1@45%]
report: faults
`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	setup := sp.BaseSetup()
	setup.Trace = &buf
	c, err := sp.Compile(setup)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	cells := res.(*scenario.ChaosResult).Cells
	if len(cells) != 2 || cells[0].Quiet.Runtime == cells[1].Report.Runtime {
		t.Fatalf("want a quiet and a faulted run of different length, got %+v", cells)
	}
	// The matrix runs the quiet calibration first, then the faulted cell.
	want := []string{
		fmt.Sprintf("makespan %.1fs", cells[0].Quiet.Runtime.Seconds()),
		fmt.Sprintf("makespan %.1fs", cells[1].Report.Runtime.Seconds()),
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "critical path (job 0 ") {
			got = append(got, line[strings.Index(line, "makespan"):len(line)-2])
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("critical paths %q, want one per run: %q\n%s", got, want, out.String())
	}
	for _, run := range []string{"run 1 of 2", "run 2 of 2"} {
		if !strings.Contains(out.String(), run) {
			t.Errorf("output does not name %q:\n%s", run, out.String())
		}
	}
}

func TestCriticalPathSumsToMakespan(t *testing.T) {
	dir := t.TempDir()
	path := writeRun(t, dir, nil)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a := readAnalysis(t, f)
	for _, jt := range a.jobs {
		perRun, wait := criticalPath(jt)
		total := wait
		for _, d := range perRun {
			total += d
		}
		if total != jt.iv.len() {
			t.Errorf("job %d: critical path sums to %s, makespan %s", jt.id, total, jt.iv.len())
		}
	}
}

func TestMetricsSummary(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	path := writeRun(t, dir, reg)
	mpath := filepath.Join(dir, "metrics.jsonl")
	mf, err := os.Create(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSONL(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	var out bytes.Buffer
	if err := run([]string{"-metrics", mpath, path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"metrics summary",
		"sae_tasks_done_total",
		"sae_executor_bytes_total{exec=\"0\"}",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics summary missing %q:\n%s", want, got)
		}
	}
}

func TestBadArgs(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("expected usage error with no arguments")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Fatal("expected error for missing trace file")
	}
}
