package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"sae/internal/exp"
)

// TestListExperiments also pins that the committed specs are listed from
// the embedded copy: the test runs in cmd/sae-exp, where no scenarios/
// directory exists.
func TestListExperiments(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = run([]string{"-list"})
	os.Stdout = stdout
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(r)
	if n := strings.Count(string(out), "\nscenarios/"); n != 5 {
		t.Errorf("-list shows %d scenario specs, want 5:\n%s", n, out)
	}
}

func TestRunOneExperimentScaledDown(t *testing.T) {
	if err := run([]string{"-scale", "0.05", "table1", "fig6"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunScenarioSweep(t *testing.T) {
	err := run([]string{
		"-scale", "0.02",
		"-scenario", "../../scenarios/terasort-crash.yaml",
		"-scenario", "../../scenarios/multitenant.yaml",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScenarioMissingFile(t *testing.T) {
	if err := run([]string{"-scenario", "no-such-file.yaml"}); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}

// TestOutOfRangeFlags: a cluster without nodes used to panic in cluster.New
// and a non-positive -scale silently ran the paper-size sweep; both are
// one-line errors the binary exits 2 on.
func TestOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "0", "fig8"},
		{"-nodes", "-1", "-scale", "0.01", "table2"},
		{"-scale", "0", "fig8"},
		{"-scale", "-1", "-list"},
		{"-scale", "NaN", "fig8"},
		{"-scale", "+Inf", "fig8"},
		{"-nodes", "0", "-scenario", "../../scenarios/terasort-crash.yaml"},
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
	if code := exp.ExitCode(run([]string{"fig99"})); code != 1 {
		t.Errorf("an unknown experiment exits %d, want 1", code)
	}
}
