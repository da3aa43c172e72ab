package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioSpec drives the parse → validate → re-serialize loop: any
// input must either fail with an error (no panics), or decode to a spec
// whose canonical form re-parses to a deep-equal spec and is a Marshal
// fixpoint, and which compiles against its own cluster block — Parse
// leaves nothing for Compile to reject. The committed golden scenarios
// seed the corpus.
func FuzzScenarioSpec(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	for _, path := range paths {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte("version: 1\nname: x\nkind: single\nworkload: terasort\npolicy: dynamic\n"))
	f.Add([]byte(`{"version": 1, "name": "x", "kind": "single", "workload": "terasort", "policy": "dynamic"}`))
	f.Add([]byte("version: 2\n"))
	f.Add([]byte("a:\n  - b\n  - c: d\n"))
	f.Add([]byte("s: 'it''s'\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse("fuzz.yaml", data)
		if err != nil {
			return
		}
		out := Marshal(sp)
		sp2, err := Parse("fuzz.yaml", out)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n--- input ---\n%s\n--- marshalled ---\n%s", err, data, out)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("round trip changed the spec\n--- input ---\n%s\n--- marshalled ---\n%s", data, out)
		}
		if again := Marshal(sp2); string(again) != string(out) {
			t.Fatalf("Marshal is not a fixpoint\n--- first ---\n%s\n--- second ---\n%s", out, again)
		}
		if _, err := sp.Compile(sp.BaseSetup()); err != nil {
			t.Fatalf("Parse accepted a spec Compile rejects: %v\n--- input ---\n%s", err, data)
		}
	})
}
