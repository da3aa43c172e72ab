package sae

import (
	"fmt"
	"testing"

	"sae/internal/exp"
)

// TestParallelSweepMatchesSequential runs every registered experiment both
// sequentially and on a worker pool and requires byte-identical rendered
// results: parallelism must never leak into simulation outcomes, because
// each run owns its entire simulated world.
func TestParallelSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	s := DAS5().WithScale(0.02)
	var tasks []exp.Task
	for _, e := range experiments {
		tasks = append(tasks, exp.Task{ID: e.ID, Run: func() (fmt.Stringer, error) { return e.Run(s) }})
	}
	seq := exp.RunParallel(1, tasks)
	par := exp.RunParallel(4, tasks)
	if len(seq) != len(par) {
		t.Fatalf("result count: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Err != nil {
			t.Fatalf("%s: sequential run failed: %v", seq[i].ID, seq[i].Err)
		}
		if par[i].Err != nil {
			t.Fatalf("%s: parallel run failed: %v", par[i].ID, par[i].Err)
		}
		if par[i].ID != seq[i].ID {
			t.Fatalf("result %d out of submission order: sequential %s, parallel %s", i, seq[i].ID, par[i].ID)
		}
		if got, want := par[i].Result.String(), seq[i].Result.String(); got != want {
			t.Errorf("%s: parallel result differs from sequential\nsequential:\n%s\nparallel:\n%s", seq[i].ID, want, got)
		}
	}
}
