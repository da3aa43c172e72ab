package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sae/internal/exp"
)

func TestHuntSmoke(t *testing.T) {
	// A tiny corpus keeps the smoke fast; the seed spec has no chaos, so
	// a couple of runs over the healthy engine must come back clean.
	dir := t.TempDir()
	spec := `version: 1
kind: single
name: smoke
workload: aggregation
policy: dynamic
cluster:
  scale: 0.02
  seed: 1
`
	if err := os.WriteFile(filepath.Join(dir, "smoke.yaml"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "7", "-runs", "2", "-shrink", "2", "-corpus", dir}); err != nil {
		t.Fatal(err)
	}
}

// TestHuntErrors: a hunt that cannot start fails, and a negative -runs or
// -shrink or a -scale out of range — negative, NaN or +Inf — is one line and
// exit status 2, before any hunt runs.
func TestHuntErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-corpus", t.TempDir()}, 1}, // no specs
		{[]string{"-runs", "x"}, 1},
		{[]string{"-runs", "-1"}, 2},
		{[]string{"-shrink", "-5"}, 2},
		{[]string{"-scale", "-3"}, 2},
		{[]string{"-scale", "NaN"}, 2},
		{[]string{"-scale", "+Inf"}, 2},
	} {
		err := run(tc.args)
		if err == nil {
			t.Errorf("args %v accepted", tc.args)
		} else if code := exp.ExitCode(err); code != tc.code || strings.Contains(err.Error(), "\n") {
			t.Errorf("args %v: exit status %d, error %q; want %d and one line", tc.args, code, err, tc.code)
		}
	}
}
