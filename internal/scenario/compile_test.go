package scenario

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/conf"
	"sae/internal/exp"
	"sae/internal/workloads"
)

func loadGolden(t *testing.T, name string) *Spec {
	t.Helper()
	sp, err := Load(filepath.Join("..", "..", "scenarios", name))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return sp
}

func runScenario(t *testing.T, sp *Spec, s exp.Setup) fmt.Stringer {
	t.Helper()
	c, err := sp.Compile(s)
	if err != nil {
		t.Fatalf("compile %s: %v", sp.Name, err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("run %s: %v", sp.Name, err)
	}
	return res
}

// TestSingleScenario runs scenarios/terasort-crash.yaml against the
// hand-built equivalent setup and checks the assertions pass.
func TestSingleScenario(t *testing.T) {
	sp := loadGolden(t, "terasort-crash.yaml")
	s := sp.BaseSetup().WithScale(0.05)

	// Hand-coded equivalent: same conf override, same chaos plan.
	reg := conf.New()
	if err := reg.Set("shuffle.io.maxRetries", "6"); err != nil {
		t.Fatal(err)
	}
	goSetup := s
	goSetup.Config = reg
	goSetup = goSetup.WithFaults(chaos.CrashAt(1, 90*time.Second))
	w, err := workloads.ByName("terasort", workloads.Config{Nodes: s.Nodes, Scale: s.Scale})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := exp.PolicyByName("dynamic")
	if err != nil {
		t.Fatal(err)
	}
	goRep, err := goSetup.Run(w, pol, nil)
	if err != nil {
		t.Fatal(err)
	}

	res := runScenario(t, sp, s)
	single, ok := res.(*SingleResult)
	if !ok {
		t.Fatalf("single scenario returned %T", res)
	}
	if single.Report.String() != goRep.String() {
		t.Errorf("single: scenario report differs from the hand-coded run\n--- go ---\n%s--- scenario ---\n%s",
			goRep, single.Report)
	}
	if fails := single.Failures(); len(fails) > 0 {
		t.Errorf("single: expect assertions failed: %v", fails)
	}
	if len(single.Checks) != 2 {
		t.Errorf("single: want 2 checks, got %d", len(single.Checks))
	}
}

// TestScenarioConfCLIOverride checks CLI-set conf values beat the spec's.
func TestScenarioConfCLIOverride(t *testing.T) {
	sp := loadGolden(t, "terasort-crash.yaml")
	s := sp.BaseSetup()
	reg := conf.New()
	if err := reg.Set("shuffle.io.maxRetries", "9"); err != nil {
		t.Fatal(err)
	}
	s.Config = reg
	c, err := sp.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Setup.Config.Get("shuffle.io.maxRetries")
	if err != nil {
		t.Fatal(err)
	}
	if got != "9" {
		t.Errorf("CLI conf override lost: shuffle.io.maxRetries = %q, want 9", got)
	}
}

// TestPercentScheduleMath pins the percentage-time resolution to the exact
// integer math quiet*pct/100.
func TestPercentScheduleMath(t *testing.T) {
	quiet := 151200 * time.Millisecond
	cases := []struct {
		clause string
		want   *chaos.Plan
	}{
		{"crash1@45%", chaos.CrashAt(1, quiet*45/100)},
		{"crash1@45%+20%", chaos.CrashRestart(1, quiet*45/100, quiet*20/100)},
		{"slow1@25%x4", chaos.SlowAt(1, quiet/4, 4)},
		{"partition1@25%+20%", chaos.PartitionAt(1, quiet/4, quiet*20/100)},
		{"flaky:0.02", chaos.Flaky(0.02, 7)},
		{"corrupt:0.05", chaos.Corrupt(0.05, 7)},
	}
	for _, c := range cases {
		gen, err := parseScheduleSpec(c.clause)
		if err != nil {
			t.Fatalf("%s: %v", c.clause, err)
		}
		got := gen(quiet, 7)
		if got.String() != c.want.String() {
			t.Errorf("%s: plan name %q, want %q", c.clause, got, c.want)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: plan differs from the constructor-built equivalent", c.clause)
		}
	}
}
