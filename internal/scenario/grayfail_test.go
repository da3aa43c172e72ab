package scenario

import (
	"strings"
	"testing"
)

func TestGrayFailMatrix(t *testing.T) {
	res := runExperiment[*ChaosResult](t, "grayfail", 0.04)
	// 3 policies × 4 schedules.
	if len(res.Cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(res.Cells))
	}
	var failovers int
	for _, c := range res.Cells {
		rep := c.Report
		if rep.Runtime <= 0 {
			t.Fatalf("cell %s/%s has non-positive runtime", c.Policy, c.Schedule)
		}
		switch {
		case c.Schedule == "quiet":
			if c.DegradedPct() != 0 || rep.Suspected != 0 || rep.Fenced != 0 ||
				rep.LostExecutors != 0 || rep.ChecksumFailovers != 0 {
				t.Fatalf("quiet cell %s degraded: %+v", c.Policy, rep)
			}
		case strings.HasPrefix(c.Schedule, "slow"):
			// A slow node keeps heart-beating: degraded, never lost.
			if rep.LostExecutors != 0 {
				t.Fatalf("slow cell %s lost %d executors", c.Policy, rep.LostExecutors)
			}
			if c.DegradedPct() <= 0 {
				t.Fatalf("4x slowdown did not degrade the %s run", c.Policy)
			}
		case strings.HasPrefix(c.Schedule, "partition"):
			// At test scale the partition may or may not outlive the
			// heartbeat timeout; either way every loss that heals must
			// have been fenced, never double-admitted.
			if rep.Fenced > rep.LostExecutors {
				t.Fatalf("partition cell %s: %d fences, %d losses", c.Policy, rep.Fenced, rep.LostExecutors)
			}
		case strings.HasPrefix(c.Schedule, "corrupt"):
			if rep.LostExecutors != 0 {
				t.Fatalf("corrupt replicas cost the %s run an executor", c.Policy)
			}
		}
		// Which blocks land on a rotten replica depends on each policy's
		// task placement, so failovers are asserted in aggregate.
		failovers += rep.ChecksumFailovers
	}
	if failovers == 0 {
		t.Fatal("no corrupt schedule produced a checksum failover")
	}
	// The acceptance cell: the dynamic policy completes under a degraded
	// (slow, not dead) node.
	if _, ok := lookup(res.Cells, func(c ChaosCell) bool {
		return c.Policy == "dynamic" && strings.HasPrefix(c.Schedule, "slow")
	}); !ok {
		t.Fatal("no dynamic slow-node cell")
	}
	if !strings.Contains(res.String(), "schedule") {
		t.Fatal("String() missing header")
	}
	if _, ok := res.CSVTables()["grayfail"]; !ok {
		t.Fatal("CSVTables missing grayfail table")
	}
}
