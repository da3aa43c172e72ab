package exp_test

import (
	"strings"
	"testing"

	"sae/internal/exp"
)

func TestGrayFailMatrix(t *testing.T) {
	res := runExperiment[*exp.GrayFailResult](t, "grayfail", 0.04)
	// 3 policies × 4 schedules.
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Seconds <= 0 {
			t.Fatalf("row %+v has non-positive runtime", row)
		}
		switch {
		case row.Schedule == "quiet":
			if row.DegradedPct != 0 || row.Suspected != 0 || row.Fenced != 0 ||
				row.LostExecutors != 0 || row.ChecksumFailovers != 0 {
				t.Fatalf("quiet row degraded: %+v", row)
			}
		case strings.HasPrefix(row.Schedule, "slow"):
			// A slow node keeps heart-beating: degraded, never lost.
			if row.LostExecutors != 0 {
				t.Fatalf("slow row lost %d executors: %+v", row.LostExecutors, row)
			}
			if row.DegradedPct <= 0 {
				t.Fatalf("4x slowdown did not degrade the run: %+v", row)
			}
		case strings.HasPrefix(row.Schedule, "partition"):
			// At test scale the partition may or may not outlive the
			// heartbeat timeout; either way every loss that heals must
			// have been fenced, never double-admitted.
			if row.Fenced > row.LostExecutors {
				t.Fatalf("more fences than losses: %+v", row)
			}
		case strings.HasPrefix(row.Schedule, "corrupt"):
			if row.LostExecutors != 0 {
				t.Fatalf("corrupt replicas cost an executor: %+v", row)
			}
		}
	}
	// Which blocks land on a rotten replica depends on each policy's task
	// placement, so assert failovers in aggregate rather than per row.
	var failovers int
	for _, row := range res.Rows {
		failovers += row.ChecksumFailovers
	}
	if failovers == 0 {
		t.Fatal("no corrupt schedule produced a checksum failover")
	}
	// The acceptance row: the dynamic policy completes under a degraded
	// (slow, not dead) node.
	found := false
	for _, row := range res.Rows {
		if row.Policy == "dynamic" && strings.HasPrefix(row.Schedule, "slow") {
			found = true
			if row.Seconds <= 0 {
				t.Fatalf("dynamic slow-node row did not complete: %+v", row)
			}
		}
	}
	if !found {
		t.Fatal("no dynamic slow-node row")
	}
	if !strings.Contains(res.String(), "schedule") {
		t.Fatal("String() missing header")
	}
	if _, ok := res.CSVTables()["grayfail"]; !ok {
		t.Fatal("CSVTables missing grayfail table")
	}
}
