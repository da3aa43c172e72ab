package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sae/internal/engine"
	"sae/internal/exp"
)

func TestRunSmallWorkload(t *testing.T) {
	err := run([]string{"-workload", "aggregation", "-scale", "0.05", "-policy", "static", "-threads", "4"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithConfOverrides(t *testing.T) {
	err := run([]string{
		"-workload", "join", "-scale", "0.05",
		"-conf", "speculation=true", "-conf", "executor.cores=8",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaults(t *testing.T) {
	err := run([]string{
		"-workload", "terasort", "-scale", "0.05",
		"-faults", "crash@20s+10s,flaky:0.02",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-workload", "nope"},
		{"-policy", "nope", "-scale", "0.01"},
		{"-policy", "static:8abc", "-scale", "0.01"},
		{"-policy", "static", "-threads", "0", "-scale", "0.01"},
		{"-faults", "crash@45%", "-scale", "0.01"},
		{"-conf", "malformed"},
		{"-conf", "no.such.key=1"},
		{"-faults", "bogus@@"},
		{"-scenario", "no-such-file.yaml"},
		{"-scenario", "../../scenarios/faults.yaml", "-workload", "terasort"},
		{"-scenario", "../../scenarios/faults.yaml", "-faults", "crash@20s"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunScenario(t *testing.T) {
	err := run([]string{"-scenario", "../../scenarios/terasort-crash.yaml", "-scale", "0.05"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioConfOverride(t *testing.T) {
	err := run([]string{
		"-scenario", "../../scenarios/terasort-crash.yaml", "-scale", "0.05",
		"-conf", "shuffle.io.maxRetries=9",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunTraceFileComplete checks the buffered trace file is flushed in
// full: it decodes, and ends with the job's last event.
func TestRunTraceFileComplete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-workload", "terasort", "-scale", "0.02", "-trace", path, "-trace-v2"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, events, err := engine.ReadTraceWithHeader(f)
	if err != nil || hdr == nil || len(events) == 0 {
		t.Fatalf("trace file: header %+v, %d events, err %v", hdr, len(events), err)
	}
	if last := events[len(events)-1]; last.Type != engine.TraceJobEnd {
		t.Fatalf("trace file ends with %+v, want the job_end event", last)
	}
}

// TestRunTraceWriteErrorReported points the trace at a device that refuses
// every write: the run must fail instead of leaving a short file behind.
func TestRunTraceWriteErrorReported(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	if err := run([]string{"-workload", "scan", "-scale", "0.02", "-trace", "/dev/full"}); err == nil {
		t.Fatal("a trace file that cannot be written was not reported")
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns what
// it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRunDecisions: -decisions prints the MAPE-K log — at least the first
// interval's doubling on some executor.
func TestRunDecisions(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-workload", "terasort", "-scale", "0.05", "-policy", "dynamic", "-decisions"})
	})
	line := regexp.MustCompile(`(?m)^  executor \d+, stage \d+ @ *[\d.]+s → +\d+ threads: first interval, ζ=`)
	if !line.MatchString(out) {
		t.Fatalf("no decision line in the output:\n%s", out)
	}
}

// TestRunPolicySpecNames: -policy takes the names a scenario file takes, so
// static:N and static -threads N are the same run.
func TestRunPolicySpecNames(t *testing.T) {
	spec := captureStdout(t, func() error {
		return run([]string{"-workload", "aggregation", "-scale", "0.05", "-policy", "static:4"})
	})
	flags := captureStdout(t, func() error {
		return run([]string{"-workload", "aggregation", "-scale", "0.05", "-policy", "static", "-threads", "4"})
	})
	if spec != flags {
		t.Fatalf("-policy static:4 and -policy static -threads 4 differ:\n%s\n---\n%s", spec, flags)
	}
}

// TestOutOfRangeFlags: a cluster without nodes used to panic in cluster.New
// and a non-positive -scale silently ran the full-size job; both are one-line
// errors the binary exits 2 on.
func TestOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "0"},
		{"-nodes", "-1", "-scale", "0.01"},
		{"-scale", "0"},
		{"-scale", "-1", "-workload", "scan"},
		// NaN and +Inf used to reach the file system as a negative size.
		{"-scale", "NaN"},
		{"-scale", "+Inf", "-workload", "scan"},
		{"-scale", "-Inf"},
		{"-scenario", "../../scenarios/faults.yaml", "-nodes", "0"},
		// A slow factor past chaos's range: such a device never finishes.
		{"-faults", "slow1@5sx1e9", "-scale", "0.02"},
	} {
		err := run(args)
		if err == nil {
			t.Errorf("args %v accepted", args)
			continue
		}
		if code := exp.ExitCode(err); code != 2 || strings.Contains(err.Error(), "\n") {
			t.Errorf("args %v: exit code %d, error %q; want 2 and one line", args, code, err)
		}
	}
	if code := exp.ExitCode(run([]string{"-workload", "nope"})); code != 1 {
		t.Errorf("an unknown workload exits %d, want 1", code)
	}
}

// TestTinyPartitionBytesRejected: files.maxPartitionBytes=-1 panicked in the
// file system and =1 split the input into one-byte blocks until the process
// ran out of memory. Both are now an invalid conf value — exit 1 with one
// line — before anything is simulated, from -conf and through a spec alike.
func TestTinyPartitionBytesRejected(t *testing.T) {
	for _, v := range []string{"-1", "1"} {
		kv := "files.maxPartitionBytes=" + v
		rejectedAtOnce(t, []string{"-scale", "0.02", "-conf", kv}, "files.maxPartitionBytes")
		rejectedAtOnce(t, []string{"-scenario", "../../scenarios/terasort-crash.yaml", "-scale", "0.02", "-conf", kv}, "files.maxPartitionBytes")
	}
}

// rejectedAtOnce wants run(args) to fail within 2 s with exit code 1 and a
// one-line error naming each of wants.
func rejectedAtOnce(t *testing.T, args []string, wants ...string) {
	t.Helper()
	start := time.Now()
	err := run(args)
	if err == nil {
		t.Errorf("args %v accepted", args)
		return
	}
	msg := err.Error()
	if code := exp.ExitCode(err); code != 1 || strings.Contains(msg, "\n") {
		t.Errorf("args %v: exit code %d, error %q; want 1 and one line", args, code, msg)
	}
	for _, want := range wants {
		if !strings.Contains(msg, want) {
			t.Errorf("args %v: error %q does not name %s", args, msg, want)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("args %v: rejected after %v", args, took)
	}
}

// TestHugeScaleRejected: -scale 1e7 ran out of memory laying out a 429 GB
// block array, and -scale 1e9 wrapped the input size negative. Both are now
// one line naming the input file and its block count, at once — as from a
// spec's cluster.scale.
func TestHugeScaleRejected(t *testing.T) {
	for _, scale := range []string{"1e7", "1e9"} {
		rejectedAtOnce(t, []string{"-scale", scale}, `"terasort/in"`, "blocks")
		rejectedAtOnce(t, []string{"-scenario", "../../scenarios/terasort-crash.yaml", "-scale", scale}, `"terasort/in"`, "blocks")
	}
	// A spec's cluster.scale that is not finite is a positional error naming it.
	src, err := os.ReadFile("../../scenarios/terasort-crash.yaml")
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []string{"NaN", "Inf", "-inf"} {
		path := filepath.Join(t.TempDir(), "spec.yaml")
		spec := strings.Replace(string(src), "scale: 1\n", "scale: "+scale+"\n", 1)
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		rejectedAtOnce(t, []string{"-scenario", path}, path+":10:", `"`+scale+`"`, "finite")
	}
}
