package exp_test

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"strings"
	"testing"

	"sae"
	"sae/internal/exp"
	"sae/internal/hunt"
	"sae/internal/invariant"
	"sae/internal/scenario"
	"sae/internal/telemetry"
	"sae/scenarios"
)

// TestJoinOrdersMatchSequential drives every fan-out through join orders a
// run on a few processors rarely takes — reverse index order and three
// seeded ones (exp.SetJoinOrder), at GOMAXPROCS 4 — over the paper's fig8,
// table2 and ablation at scale 0.02, the committed scenarios at scale 0.05
// (the chaos and arrival matrices nest fan-outs), and a six-run hunt of those
// specs. Each must print what it prints at GOMAXPROCS 1, where every call
// joins before the next starts: the result, the trace bytes, the telemetry
// exports, the auditor's violations and coverage, and the hunt's result and
// log.
func TestJoinOrdersMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("four passes over three artifacts, five scenarios and a hunt")
	}
	var specs []*scenario.Spec
	names, err := fs.Glob(scenarios.FS, "*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := scenarios.FS.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := scenario.Parse(name, data)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	want := renderAll(t, specs, 1)
	for _, seed := range []uint64{0, 1, 2, 3} {
		order := "reverse"
		if seed != 0 {
			order = fmt.Sprintf("seed %d", seed)
		}
		orders, restore := exp.SetJoinOrder(seed)
		got := renderAll(t, specs, 4)
		restore()
		t.Logf("join order %s held %d fan-outs", order, len(orders()))
		for k, w := range want {
			if got[k].out != w.out {
				line, g, x := firstDiff(got[k].out, w.out)
				t.Errorf("%s, join order %s: line %d differs from GOMAXPROCS 1:\n got %.300s\nwant %.300s\nrelease orders of the first fan-outs: %.600s",
					w.name, order, line, g, x, strings.Join(orders(), " "))
			}
		}
	}
}

// rendered is one run's printout under a name.
type rendered struct{ name, out string }

// renderAll runs every artifact, scenario and the hunt at GOMAXPROCS procs.
func renderAll(t *testing.T, specs []*scenario.Spec, procs int) []rendered {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var out []rendered
	for _, id := range []string{"fig8", "table2", "ablation"} {
		out = append(out, rendered{id, withSinks(t, sae.DAS5().WithScale(0.02), func(s exp.Setup) (fmt.Stringer, error) {
			return sae.RunExperiment(id, s)
		})})
	}
	for _, sp := range specs {
		s := sp.BaseSetup()
		s.Scale = 0.05
		out = append(out, rendered{sp.Name, withSinks(t, s, func(s exp.Setup) (fmt.Stringer, error) {
			c, err := sp.Compile(s)
			if err != nil {
				return nil, err
			}
			return c.Run()
		})})
	}
	var log strings.Builder
	res, err := hunt.Run(hunt.Options{Seed: 7, Runs: 6, Scale: 0.02, Corpus: specs,
		Log: func(format string, args ...any) { fmt.Fprintf(&log, format+"\n", args...) }})
	if err != nil {
		t.Fatalf("hunt at GOMAXPROCS %d: %v", procs, err)
	}
	return append(out, rendered{"hunt", fmt.Sprintf("%+v\n%s", *res, log.String())})
}

// withSinks runs run on s with a trace, a registry and an auditor of its own
// and renders the result and the three sinks.
func withSinks(t *testing.T, s exp.Setup, run func(exp.Setup) (fmt.Stringer, error)) string {
	var trace bytes.Buffer
	reg, aud := telemetry.NewRegistry(), invariant.New()
	s.Trace, s.Metrics, s.Audit = &trace, reg, aud
	res, err := run(s)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\ntrace %d bytes:\n%s\n", res, trace.Len(), trace.Bytes())
	for _, write := range []func(io.Writer) error{reg.WriteJSONL, reg.WriteCSV, reg.WritePrometheus} {
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&b, "violations %v\ndropped %d\ncoverage %v\n", aud.Violations(), aud.Dropped(), aud.Coverage())
	return b.String()
}

// firstDiff returns the 1-based number of the first line where got and want
// differ, and that line of each.
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		var a, b string
		if i < len(g) {
			a = g[i]
		}
		if i < len(w) {
			b = w[i]
		}
		if a != b {
			return i + 1, a, b
		}
	}
	return 0, "", ""
}
