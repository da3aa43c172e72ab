package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"sae/internal/engine"
	"sae/internal/exp"
)

func TestRunSmallWorkload(t *testing.T) {
	err := run([]string{"-workload", "aggregation", "-scale", "0.05", "-policy", "static:4"})
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
		{"-policy", "static:0", "-scale", "0.01"},
		{"-faults", "crash@45%", "-scale", "0.01"},
		{"-conf", "malformed"},
		{"-conf", "no.such.key=1"},
		{"-faults", "bogus@@"},
		{"-scenario", "no-such-file.yaml"},
		{"-scenario", "../../scenarios/faults.yaml", "-workload", "terasort"},
		{"-scenario", "../../scenarios/faults.yaml", "-faults", "crash@20s"},
		{"-scenario", "../../scenarios/faults.yaml", "-decisions"},
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
	if err := run([]string{"-workload", "terasort", "-scale", "0.02", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, err := engine.ReadTraceRuns(f)
	if err != nil || len(runs) != 1 || runs[0].Header == nil || len(runs[0].Events) == 0 {
		t.Fatalf("trace file: %+v, err %v; want one run with a header and events", runs, err)
	}
	events := runs[0].Events
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
	return capture(t, &os.Stdout, fn)
}

// capture runs fn with *stream redirected to a file and returns what it
// printed there.
func capture(t *testing.T, stream **os.File, fn func() error) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := *stream
	*stream = f
	err = fn()
	*stream = saved
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

// TestOutOfRangeFlags: a cluster without nodes used to panic in cluster.New
// and a non-positive -scale silently ran the full-size job; both are one-line
// errors the binary exits 2 on.
func TestOutOfRangeFlags(t *testing.T) {
	slow := writeSpec(t, "chaos: slow1@5sx1e9")
	flaky := writeSpec(t, "chaos: flaky:2")
	late := filepath.Join(t.TempDir(), "late.yaml")
	if err := os.WriteFile(late, []byte("version: 1\nname: late\nkind: chaos-matrix\nworkload: scan\npolicies: [default]\nschedules: [crash1@150%]\nreport: faults\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	crash9 := writeSpec(t, "chaos: crash9@5s")
	banana := writeSpec(t, "conf:\n  executor.threads: banana")
	noRetry := writeSpec(t, "conf:\n  task.maxFailures: 0")
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
		{"-scenario", slow},
		// A fault rate outside (0, 1], and a schedule's instant past the
		// reference run.
		{"-faults", "flaky:2", "-scale", "0.02"},
		{"-faults", "flaky:0", "-scale", "0.02"},
		{"-scenario", flaky},
		{"-scenario", late},
		// An executor the cluster does not have: the run would be fault-free.
		{"-faults", "crash9@5s", "-scale", "0.02"},
		{"-scenario", crash9},
		{"-scenario", crash9, "-nodes", "9"},
		// A sampler period that never lets the clock reach the job's end.
		{"-scale", "0.02", "-metrics", os.DevNull, "-metrics-interval", "1ns"},
		{"-scale", "0.02", "-metrics-interval", "-5s"},
		// A key whose default names another key takes that key's kind of value.
		{"-scale", "0.02", "-conf", "executor.threads=banana"},
		{"-scenario", banana},
		// Values the engine's options would read as "use the default".
		{"-scale", "0.02", "-conf", "task.maxFailures=0"},
		{"-scale", "0.02", "-conf", "speculation.quantile=7"},
		{"-scale", "0.02", "-conf", "executor.cores=0"},
		{"-scenario", noRetry},
	} {
		start := time.Now()
		err := run(args)
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("args %v: rejected after %v", args, took)
		}
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
// ran out of memory. Both are now a value the catalogue refuses — exit 2 with
// one line — before anything is simulated, from -conf and through a spec alike.
func TestTinyPartitionBytesRejected(t *testing.T) {
	for _, v := range []string{"-1", "1"} {
		kv := "files.maxPartitionBytes=" + v
		rejectedAtOnce(t, 2, []string{"-scale", "0.02", "-conf", kv}, "files.maxPartitionBytes")
		rejectedAtOnce(t, 2, []string{"-scenario", "../../scenarios/terasort-crash.yaml", "-scale", "0.02", "-conf", kv}, "files.maxPartitionBytes")
	}
}

// TestNanosecondHeartbeatRejected: executor.heartbeatInterval=1ns never let
// the clock reach the job's end. Below 100ms the catalogue refuses it — exit
// 2 — from -conf and through a spec alike.
func TestNanosecondHeartbeatRejected(t *testing.T) {
	kv := "executor.heartbeatInterval=1ns"
	rejectedAtOnce(t, 2, []string{"-scale", "0.02", "-conf", kv}, "executor.heartbeatInterval")
	rejectedAtOnce(t, 2, []string{"-scenario", "../../scenarios/terasort-crash.yaml", "-scale", "0.02", "-conf", kv}, "executor.heartbeatInterval")
}

// TestRunawayValuesRejected: each value here panicked a run or kept it going
// for minutes of wall time. Six heartbeat intervals overflowed the failure
// detector's loss timeout — negative from about 427h (a "sim: negative
// delay" panic), wrapped positive past that; the fetch backoff retryWait <<
// try doubled into hundreds of millions of virtual seconds that the
// heartbeats fill event by event; a task's launch CPU had no ceiling; and a
// slow factor of 1e-320 made a device infinitely fast. Each is one line at
// once, with exit status 2.
func TestRunawayValuesRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-conf", "executor.heartbeatInterval=1000000h"}, "executor.heartbeatInterval"},
		{[]string{"-conf", "executor.heartbeatInterval=2000000h"}, "executor.heartbeatInterval"},
		{[]string{"-faults", "fetch:1", "-conf", "shuffle.io.maxRetries=16"}, "shuffle.io.maxRetries"},
		{[]string{"-faults", "fetch:1", "-conf", "shuffle.io.maxRetries=18"}, "shuffle.io.maxRetries"},
		{[]string{"-faults", "fetch:1", "-conf", "shuffle.io.maxRetries=40"}, "shuffle.io.maxRetries"},
		{[]string{"-faults", "fetch:0.5", "-conf", "shuffle.io.retryWait=2000000h"}, "shuffle.io.retryWait"},
		{[]string{"-conf", "executor.taskOverheadMillis=9223372036854"}, "executor.taskOverheadMillis"},
		{[]string{"-faults", "slow1@5sx1e-320"}, `"slow1@5sx1e-320"`},
	} {
		rejectedAtOnce(t, 2, append([]string{"-scale", "0.02"}, c.args...), c.want)
	}
}

// TestDefaultConfLeavesTenantMatrixAlone: -conf speculation=false sets a key to
// its default value, so the multitenant matrix must print what it prints
// without it. It printed every FAIR row as its FIFO twin; scheduler.mode, the
// key the matrix fixes itself, is refused.
func TestDefaultConfLeavesTenantMatrixAlone(t *testing.T) {
	args := []string{"-scenario", "../../scenarios/multitenant.yaml", "-scale", "0.02"}
	plain := captureStdout(t, func() error { return run(args) })
	withConf := captureStdout(t, func() error { return run(append(args, "-conf", "speculation=false")) })
	if withConf != plain {
		t.Errorf("-conf speculation=false changed the report\n--- without ---\n%s--- with ---\n%s", plain, withConf)
	}
	rejectedAtOnce(t, 1, append(args, "-conf", "scheduler.mode=FAIR"), "scheduler.mode")
}

// rejectedAtOnce wants run(args) to fail within 2 s with exit code code and
// a one-line error naming each of wants.
func rejectedAtOnce(t *testing.T, code int, args []string, wants ...string) {
	t.Helper()
	start := time.Now()
	err := run(args)
	if err == nil {
		t.Errorf("args %v accepted", args)
		return
	}
	msg := err.Error()
	if got := exp.ExitCode(err); got != code || strings.Contains(msg, "\n") {
		t.Errorf("args %v: exit code %d, error %q; want %d and one line", args, got, msg, code)
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
		rejectedAtOnce(t, 1, []string{"-scale", scale}, `"terasort/in"`, "blocks")
		rejectedAtOnce(t, 1, []string{"-scenario", "../../scenarios/terasort-crash.yaml", "-scale", scale}, `"terasort/in"`, "blocks")
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
		rejectedAtOnce(t, 1, []string{"-scenario", path}, path+":10:", `"`+scale+`"`, "finite")
	}
}

// writeSpec writes under the test's temp dir the single-kind spec of a
// dynamic scan at scale 0.02 and seed 7, with extra lines appended.
func writeSpec(t *testing.T, extra ...string) string {
	t.Helper()
	doc := "version: 1\nname: scan\nkind: single\ncluster:\n  scale: 0.02\n  seed: 7\n" +
		"workload: scan\npolicy: dynamic\n" + strings.Join(append(extra, ""), "\n")
	path := filepath.Join(t.TempDir(), "scan.yaml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagsAndSpecAreOneRun: the flags are the single spec a file would hold,
// so both print the same run; -seed seeds the fault dice as cluster.seed
// does. The one line only the flags print is the confirmation that a -faults
// schedule lost nothing. -decisions reads a single spec's report.
func TestFlagsAndSpecAreOneRun(t *testing.T) {
	flags := captureStdout(t, func() error {
		return run([]string{"-workload", "scan", "-scale", "0.02", "-seed", "7", "-faults", "flaky:0.2"})
	})
	spec := captureStdout(t, func() error {
		return run([]string{"-scenario", writeSpec(t, "chaos: flaky:0.2")})
	})
	quiet := "  faults: schedule applied, no executors lost and no stages resubmitted\n"
	if flags != spec+quiet {
		t.Errorf("flags and spec differ\n--- flags ---\n%s--- spec ---\n%s", flags, spec)
	}

	flags = captureStdout(t, func() error {
		return run([]string{"-workload", "scan", "-scale", "0.02", "-seed", "7", "-decisions"})
	})
	spec = captureStdout(t, func() error {
		return run([]string{"-scenario", writeSpec(t), "-decisions"})
	})
	if flags != spec || !strings.Contains(spec, "threads: first interval") {
		t.Errorf("-decisions: flags and spec differ or print no decision\n--- flags ---\n%s--- spec ---\n%s", flags, spec)
	}
}

// TestUnmodelledConfNamedOnStderr: a key the engine does not model, moved off
// its default by -conf or by a spec's conf block, costs one stderr line naming
// it and changes nothing the run prints; at its default it costs nothing.
func TestUnmodelledConfNamedOnStderr(t *testing.T) {
	plain := captureStdout(t, func() error { return run([]string{"-workload", "scan", "-scale", "0.02", "-seed", "7"}) })
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"flag", []string{"-workload", "scan", "-scale", "0.02", "-seed", "7", "-conf", "locality.wait=0s"},
			"sae-run: conf locality.wait=0s is not modelled: the run ignores it\n"},
		{"spec", []string{"-scenario", writeSpec(t, "conf:", "  locality.wait: 0s")},
			"sae-run: conf locality.wait=0s is not modelled: the run ignores it\n"},
		{"default", []string{"-workload", "scan", "-scale", "0.02", "-seed", "7", "-conf", "locality.wait=3s", "-conf", "speculation=false"}, ""},
	} {
		var out string
		stderr := capture(t, &os.Stderr, func() error {
			out = captureStdout(t, func() error { return run(tc.args) })
			return nil
		})
		if stderr != tc.want {
			t.Errorf("%s: stderr %q, want %q", tc.name, stderr, tc.want)
		}
		if out != plain {
			t.Errorf("%s: the run printed\n%s\nwant, as without the key,\n%s", tc.name, out, plain)
		}
	}
}

// TestBlacklistLiftedWhenRefugeLost pins a run that used to end "all executors
// lost at 1m0s" with three executors alive. Executor 1 crashes at 5 s unseen;
// flaky tasks get the other three blacklisted at 15.7–16.4 s, because the
// driver still counts executor 1 as the refuge that leaves work somewhere to
// go. When executor 1's heartbeat times out at 60 s nothing is assignable, so
// the three live executors' blacklisting is lifted and the job finishes.
func TestBlacklistLiftedWhenRefugeLost(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	out := captureStdout(t, func() error {
		return run([]string{"-workload", "scan", "-scale", "0.02", "-faults", "crash1@5s,flaky:0.2", "-audit", "-trace", path})
	})
	if !strings.Contains(out, "runtime 75.0s") || !strings.Contains(out, "1 executor(s) lost") {
		t.Errorf("want a 75.0 s run that lost one executor, got\n%s", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, err := engine.ReadTraceRuns(f)
	if err != nil || len(runs) != 1 {
		t.Fatalf("trace file: %d runs, err %v; want one run", len(runs), err)
	}
	var blacklisted, lifted []int
	for _, ev := range runs[0].Events {
		switch {
		case ev.Type == engine.TraceBlacklist && ev.At < 60:
			blacklisted = append(blacklisted, ev.Exec)
		case ev.Type == engine.TraceBlacklistLift:
			if ev.At != 60 {
				t.Errorf("executor %d's blacklisting lifted at %vs, want at the loss, 60s", ev.Exec, ev.At)
			}
			lifted = append(lifted, ev.Exec)
		}
	}
	if !slices.Equal(blacklisted, []int{3, 2, 0}) || !slices.Equal(lifted, []int{0, 2, 3}) {
		t.Errorf("blacklisted %v before the loss and lifted %v, want [3 2 0] and [0 2 3]", blacklisted, lifted)
	}
}
