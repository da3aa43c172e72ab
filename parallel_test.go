package sae

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"sae/internal/invariant"
	"sae/internal/telemetry"
)

// TestParallelSweepMatchesSequential runs every registered experiment at
// GOMAXPROCS 1, where each runs its engine runs one after another, and at
// GOMAXPROCS 4, where they run side by side, with a trace, a telemetry
// registry and an auditor shared by all of an experiment's runs, and requires
// byte-identical rendered results, trace, exports and audit: parallelism must
// never leak into simulation outcomes, because each run owns its entire
// simulated world, nor into what the shared sinks receive, because the runs'
// own sinks join them in the order the runs would have gone.
func TestParallelSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	render := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out []string
		for _, e := range experiments {
			s := DAS5().WithScale(0.02)
			var trace, b bytes.Buffer
			reg, aud := telemetry.NewRegistry(), invariant.New()
			s.Trace, s.Metrics, s.Audit = &trace, reg, aud
			res, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", e.ID, procs, err)
			}
			fmt.Fprintf(&b, "%s\ntrace %d bytes, sha256 %x\n", res, trace.Len(), sha256.Sum256(trace.Bytes()))
			if err := reg.WriteJSONL(&b); err != nil {
				t.Fatal(err)
			}
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "violations %v dropped %d\ncoverage %v\n", aud.Violations(), aud.Dropped(), aud.Coverage())
			out = append(out, b.String())
		}
		return out
	}
	seq, par := render(1), render(4)
	for i, e := range experiments {
		if par[i] != seq[i] {
			t.Errorf("%s: at GOMAXPROCS 4 the result or the shared sinks differ from GOMAXPROCS 1\nGOMAXPROCS 1:\n%.3000s\nGOMAXPROCS 4:\n%.3000s", e.ID, seq[i], par[i])
		}
	}
}
