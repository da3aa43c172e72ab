package telemetry_test

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"sae/internal/invariant"
	"sae/internal/scenario"
	"sae/internal/telemetry"
)

// TestScenarioDumpsMatchOracle runs every committed scenario with all
// three observer planes attached and requires the JSONL dump of its
// registry (shared by every run of a matrix scenario) to be what
// encoding/json writes, and the registry to end with one ζ hook.
func TestScenarioDumpsMatchOracle(t *testing.T) {
	specs, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no scenario specs found (err %v)", err)
	}
	for _, path := range specs {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sp, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			setup := sp.BaseSetup().WithScale(0.02)
			reg := telemetry.NewRegistry()
			setup.Metrics = reg
			setup.Audit = invariant.New()
			setup.Trace = io.Discard
			c, err := sp.Compile(setup)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			// Every engine of a matrix scenario registers its ζ hook on the
			// shared registry; each must replace its predecessor's, or the
			// registry pins every finished engine.
			if n := telemetry.HookCount(reg); n != 1 {
				t.Errorf("registry holds %d sample hooks after the scenario's runs, want 1", n)
			}
			var got, want bytes.Buffer
			if err := reg.WriteJSONL(&got); err != nil {
				t.Fatal(err)
			}
			if err := telemetry.WriteJSONLOracle(reg, &want); err != nil {
				t.Fatal(err)
			}
			if got.Len() == 0 {
				t.Fatal("empty dump")
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("JSONL dump (%d bytes) differs from encoding/json's (%d bytes)", got.Len(), want.Len())
			}
		})
	}
}
