package exp_test

import (
	"testing"

	"sae/internal/exp"
)

func TestMultiTenantMatrix(t *testing.T) {
	res := runExperiment[*exp.MultiTenantResult](t, "multitenant", 0.02)
	// 4 mixes × 2 schedulers × 2 policies.
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
	jobsPerMix := map[string]int{
		"2xterasort": 2, "2xpagerank": 2, "terasort+pagerank": 2,
		"2xterasort+2xpagerank": 4,
	}
	for _, row := range res.Rows {
		if row.MakespanSec <= 0 || row.MeanJobSec <= 0 {
			t.Fatalf("row %+v has non-positive runtime", row)
		}
		if want := jobsPerMix[row.Mix]; len(row.JobSecs) != want {
			t.Fatalf("%s has %d job runtimes, want %d", row.Mix, len(row.JobSecs), want)
		}
		if row.MeanJobSec > row.MakespanSec {
			t.Fatalf("%s/%s/%s: mean %f exceeds makespan %f",
				row.Mix, row.Sched, row.Policy, row.MeanJobSec, row.MakespanSec)
		}
	}
	// Schedulers reorder work but never lose it: every cell exists.
	for _, mix := range []string{"2xterasort", "2xpagerank", "terasort+pagerank", "2xterasort+2xpagerank"} {
		for _, sched := range []string{"FIFO", "FAIR"} {
			for _, pol := range []string{"default", "dynamic"} {
				if _, ok := res.Get(mix, sched, pol); !ok {
					t.Fatalf("missing row %s/%s/%s", mix, sched, pol)
				}
			}
		}
	}
	if _, ok := res.CSVTables()["multitenant"]; !ok {
		t.Fatal("CSVTables missing multitenant table")
	}
}
