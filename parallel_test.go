package sae

import (
	"runtime"
	"testing"
)

// TestParallelSweepMatchesSequential runs every registered experiment at
// GOMAXPROCS 1, where each runs its engine runs one after another, and at
// GOMAXPROCS 4, where they run side by side, and requires byte-identical
// rendered results: parallelism must never leak into simulation outcomes,
// because each run owns its entire simulated world.
func TestParallelSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	s := DAS5().WithScale(0.02)
	render := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out []string
		for _, e := range experiments {
			res, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", e.ID, procs, err)
			}
			out = append(out, res.String())
		}
		return out
	}
	seq, par := render(1), render(4)
	for i, e := range experiments {
		if par[i] != seq[i] {
			t.Errorf("%s: at GOMAXPROCS 4 the result differs from GOMAXPROCS 1\nGOMAXPROCS 1:\n%s\nGOMAXPROCS 4:\n%s", e.ID, seq[i], par[i])
		}
	}
}
