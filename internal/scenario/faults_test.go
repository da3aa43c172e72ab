package scenario

import (
	"strings"
	"testing"
)

func TestFaultsMatrix(t *testing.T) {
	res := runExperiment[*ChaosResult](t, "faults", 0.04)
	// 3 policies × 4 schedules.
	if len(res.Cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(res.Cells))
	}
	for _, c := range res.Cells {
		rep := c.Report
		if rep.Runtime <= 0 {
			t.Fatalf("cell %s/%s has non-positive runtime", c.Policy, c.Schedule)
		}
		switch {
		case c.Schedule == "quiet":
			if rep.LostExecutors != 0 || c.DegradedPct() != 0 {
				t.Fatalf("quiet cell %s degraded: lost %d, %+.1f%%", c.Policy, rep.LostExecutors, c.DegradedPct())
			}
		case strings.HasPrefix(c.Schedule, "crash"):
			if rep.LostExecutors != 1 {
				t.Fatalf("crash cell %s/%s lost %d executors", c.Policy, c.Schedule, rep.LostExecutors)
			}
			requeued := 0
			for _, st := range rep.Stages {
				requeued += st.Requeued
			}
			if requeued == 0 {
				t.Fatalf("crash cell %s/%s requeued nothing", c.Policy, c.Schedule)
			}
		}
	}
	// The acceptance cell: the dynamic policy completes a crash-and-restart
	// Terasort with exactly one loss.
	c, ok := lookup(res.Cells, func(c ChaosCell) bool { return c.Policy == "dynamic" && strings.Contains(c.Schedule, "+") })
	if !ok {
		t.Fatal("no dynamic crash-restart cell")
	}
	if c.Report.LostExecutors != 1 {
		t.Fatalf("dynamic crash-restart lost %d executors", c.Report.LostExecutors)
	}
	if !strings.Contains(res.String(), "schedule") {
		t.Fatal("String() missing header")
	}
	if _, ok := res.CSVTables()["faults"]; !ok {
		t.Fatal("CSVTables missing faults table")
	}
}
