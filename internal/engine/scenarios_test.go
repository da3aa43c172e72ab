package engine_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"sae/internal/engine"
	"sae/internal/invariant"
	"sae/internal/scenario"
	"sae/internal/telemetry"
)

// TestScenarioTracesMatchOracle runs every committed scenario under audit,
// telemetry and a trace. The v2 subtest requires the log — every run of a
// matrix scenario appended to one writer, each starting with its header — to
// be what encoding/json writes for the same event stream; the v1 subtest
// requires the pre-v2 rendering of the same stream to decode to the same
// events, spans aside.
func TestScenarioTracesMatchOracle(t *testing.T) {
	specs, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no scenario specs found (err %v)", err)
	}
	for _, path := range specs {
		for _, format := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/v%d", filepath.Base(path), format), func(t *testing.T) {
				sp, err := scenario.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				var got, want bytes.Buffer
				aud := invariant.New()
				setup := sp.BaseSetup().WithScale(0.02)
				setup.Trace = &got
				setup.Audit = &engine.TraceOracle{Audit: aud, W: &want, Legacy: format == 1}
				setup.Metrics = telemetry.NewRegistry()
				c, err := sp.Compile(setup)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Run(); err != nil {
					t.Fatal(err)
				}
				if vs := aud.Violations(); len(vs) > 0 {
					t.Fatalf("%d invariant violation(s), first: %s", len(vs), vs[0])
				}
				if got.Len() == 0 {
					t.Fatal("empty trace")
				}
				if format == 2 {
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("trace (%d bytes) differs from encoding/json's (%d bytes)", got.Len(), want.Len())
					}
					return
				}
				events := engine.TraceEvents(t, &got)
				legacy := engine.TraceEvents(t, &want)
				if len(events) != len(legacy) {
					t.Fatalf("trace decodes to %d events, its pre-v2 rendering to %d", len(events), len(legacy))
				}
				for i, ev := range events {
					if ev.Span, ev.Parent = 0, 0; ev != legacy[i] {
						t.Fatalf("event %d: trace decodes to %+v, its pre-v2 rendering to %+v", i, ev, legacy[i])
					}
				}
			})
		}
	}
}
