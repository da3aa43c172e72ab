package scenario

import "testing"

func TestMultiTenantMatrix(t *testing.T) {
	res := runExperiment[*TenantResult](t, "multitenant", 0.02)
	// 4 mixes × 2 schedulers × 2 policies.
	if len(res.Cells) != 16 {
		t.Fatalf("cells = %d, want 16", len(res.Cells))
	}
	jobsPerMix := map[string]int{
		"2xterasort": 2, "2xpagerank": 2, "terasort+pagerank": 2,
		"2xterasort+2xpagerank": 4,
	}
	for _, c := range res.Cells {
		secs, makespan, mean := c.jobSecs()
		if makespan <= 0 || mean <= 0 {
			t.Fatalf("%s/%s/%s has non-positive runtime", c.Mix, c.Sched, c.Policy)
		}
		if want := jobsPerMix[c.Mix]; len(secs) != want {
			t.Fatalf("%s has %d job runtimes, want %d", c.Mix, len(secs), want)
		}
		if mean > makespan {
			t.Fatalf("%s/%s/%s: mean %f exceeds makespan %f", c.Mix, c.Sched, c.Policy, mean, makespan)
		}
	}
	// Schedulers reorder work but never lose it: every cell exists.
	for _, mix := range []string{"2xterasort", "2xpagerank", "terasort+pagerank", "2xterasort+2xpagerank"} {
		for _, sched := range []string{"FIFO", "FAIR"} {
			for _, pol := range []string{"default", "dynamic"} {
				if _, ok := lookup(res.Cells, func(c TenantCell) bool {
					return c.Mix == mix && c.Sched == sched && c.Policy == pol
				}); !ok {
					t.Fatalf("missing cell %s/%s/%s", mix, sched, pol)
				}
			}
		}
	}
	if _, ok := res.CSVTables()["multitenant"]; !ok {
		t.Fatal("CSVTables missing multitenant table")
	}
}
