package hunt

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"sae/internal/engine"
	"sae/internal/scenario"
)

// crashSeed is the corpus seed used by the mutation test: a tight failure
// detector and an early crash, so executor 1 is declared lost mid-run
// with tasks in flight.
const crashSeed = `version: 1
kind: single
name: crash-seed
description: crash declared mid-run under a tight failure detector
workload: terasort
policy: dynamic
chaos: crash1@8s
conf:
  executor.heartbeatInterval: 2s
cluster:
  nodes: 4
  scale: 0.02
  seed: 1
`

func parseSeed(t *testing.T) *scenario.Spec {
	t.Helper()
	sp, err := scenario.Parse("crash-seed.yaml", []byte(crashSeed))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestHuntCleanOnSeed proves a bounded hunt over the healthy engine finds
// nothing: the corpus seed passes all invariants and a few mutants stay
// clean too.
func TestHuntCleanOnSeed(t *testing.T) {
	res, err := Run(Options{Seed: 3, Runs: 3, ShrinkRuns: 4, Corpus: []*scenario.Spec{parseSeed(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("hunt over the healthy engine found: %v", res.Findings)
	}
	if res.Runs != 3 {
		t.Fatalf("executed %d runs, want 3", res.Runs)
	}
	if len(res.Coverage) == 0 {
		t.Fatal("no coverage signals recorded")
	}
}

// TestHuntCatchesInjectedSlotLeak is the hunter's mutation test: with the
// slot-reclaim bug injected into the engine, the corpus seed alone must
// surface a slot-conservation finding, shrink it, and replay it from the
// emitted YAML bytes.
func TestHuntCatchesInjectedSlotLeak(t *testing.T) {
	restore := engine.EnableTestBug("skip-slot-reclaim")
	defer restore()
	res, err := Run(Options{Seed: 3, Runs: 2, ShrinkRuns: 8, Corpus: []*scenario.Spec{parseSeed(t)}})
	if err != nil {
		t.Fatal(err)
	}
	var f *Finding
	for i := range res.Findings {
		if res.Findings[i].Rule == "slot-conservation" {
			f = &res.Findings[i]
		}
	}
	if f == nil {
		t.Fatalf("slot-conservation not found; findings: %v", res.Findings)
	}
	if !f.Replayed {
		t.Fatal("shrunk reproducer did not replay from its YAML bytes")
	}
	if f.Violation.Rule != "slot-conservation" {
		t.Fatalf("finding carries violation of %s", f.Violation.Rule)
	}
	// The reproducer must be a valid, canonical spec: parsing its YAML and
	// re-marshaling round-trips byte-identically.
	sp, err := scenario.Parse("repro.yaml", f.YAML)
	if err != nil {
		t.Fatalf("emitted reproducer does not parse: %v", err)
	}
	if rt := scenario.Marshal(sp); !bytes.Equal(rt, f.YAML) {
		t.Fatalf("reproducer YAML is not canonical:\n%s\nvs\n%s", f.YAML, rt)
	}
	// Shrinking is effective: the spec keeps the chaos clause and the
	// detector knob (both load-bearing) but sheds the description.
	if sp.Chaos == "" {
		t.Fatal("shrink dropped the chaos clause the violation needs")
	}
	if sp.Description != "" {
		t.Fatalf("shrink kept the cosmetic description %q", sp.Description)
	}
}

// TestHuntDeterministic runs the same hunt twice and compares everything:
// same findings, same YAML bytes, same coverage, same corpus growth.
func TestHuntDeterministic(t *testing.T) {
	opts := func() Options {
		return Options{Seed: 11, Runs: 4, ShrinkRuns: 4, Corpus: []*scenario.Spec{parseSeed(t)}}
	}
	a, err := Run(opts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same options, different results:\n%+v\nvs\n%+v", a, b)
	}
}

// TestMutateDeterministicAndValid checks the mutator is a pure function
// of (parent, rng state) and only ever emits specs that survive the
// canonical Marshal/Parse round trip.
func TestMutateDeterministicAndValid(t *testing.T) {
	parent := parseSeed(t)
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		m1, ok1 := mutate(parent, r1)
		m2, ok2 := mutate(parent, r2)
		if ok1 != ok2 {
			t.Fatalf("step %d: divergent validity %v vs %v", i, ok1, ok2)
		}
		if !ok1 {
			continue
		}
		y1, y2 := scenario.Marshal(m1), scenario.Marshal(m2)
		if !bytes.Equal(y1, y2) {
			t.Fatalf("step %d: same rng state, different mutants:\n%s\nvs\n%s", i, y1, y2)
		}
		if _, err := scenario.Parse("mutant.yaml", y1); err != nil {
			t.Fatalf("step %d: mutant does not re-parse: %v\n%s", i, err, y1)
		}
	}
}

// TestMutantsKeepMultiJobSchedulers: the tenant- and arrival-matrix kinds fix
// the inter-job scheduler of their runs and Compile refuses scheduler.mode on
// them, so the mutator never puts the key there.
func TestMutantsKeepMultiJobSchedulers(t *testing.T) {
	for _, path := range []string{"../../scenarios/multitenant.yaml", "../../scenarios/autoscale.yaml"} {
		parent, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 400; i++ {
			m, ok := mutate(parent, rng)
			if _, set := m.Conf["scheduler.mode"]; ok && set {
				t.Fatalf("%s: mutant %d carries scheduler.mode:\n%s", path, i, scenario.Marshal(m))
			}
		}
	}
}

// TestNormalizeScaleStripsExpect checks the false-positive guard: a scale
// override drops the spec's expect block (its thresholds were calibrated
// for the original scale), while no override keeps spec and expectations
// untouched.
func TestNormalizeScaleStripsExpect(t *testing.T) {
	src := []byte(`version: 1
kind: single
name: with-expect
workload: terasort
policy: dynamic
cluster:
  scale: 0.05
expect:
  max_runtime_sec: 100
`)
	sp, err := scenario.Parse("with-expect.yaml", src)
	if err != nil {
		t.Fatal(err)
	}
	h := &hunter{opts: Options{Scale: 0.02}}
	n, err := h.normalize(sp)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cluster.Scale != 0.02 || n.Expect != nil {
		t.Fatalf("normalize kept scale %v / expect %v", n.Cluster.Scale, n.Expect)
	}
	if sp.Expect == nil {
		t.Fatal("normalize mutated the input spec")
	}
	h = &hunter{opts: Options{}}
	n, err = h.normalize(sp)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cluster.Scale != 0.05 || n.Expect == nil {
		t.Fatal("normalize without a scale override should keep the spec as-is")
	}
}
