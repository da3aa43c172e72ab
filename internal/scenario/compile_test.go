package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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

// runExperiment runs the committed scenarios/<id>.yaml against the paper
// setup at the given scale, the way sae-exp runs the extension experiments.
func runExperiment[R any](t *testing.T, id string, scale float64) R {
	t.Helper()
	res := runScenario(t, loadGolden(t, id+".yaml"), exp.Default().WithScale(scale))
	typed, ok := res.(R)
	if !ok {
		t.Fatalf("%s returned %T", id, res)
	}
	return typed
}

// lookup returns the first of xs that match accepts.
func lookup[T any](xs []T, match func(T) bool) (T, bool) {
	if i := slices.IndexFunc(xs, match); i >= 0 {
		return xs[i], true
	}
	var zero T
	return zero, false
}

// seed7 is the setup `sae-exp -scale 0.02 -seed 7` runs the extension
// experiments on.
func seed7() exp.Setup {
	s := exp.Default().WithScale(0.02)
	s.Seed = 7
	return s
}

// TestMatrixCSVMatchesGolden compares the -csv export of the four matrix
// experiments with testdata/matrix_csv.golden, the files `sae-exp -scale
// 0.02 -seed 7 -csv DIR faults grayfail multitenant autoscale` wrote while
// internal/exp still ran the matrices: both chaos presets' CSV names,
// headers and cells, the tenant matrix's derived columns and the arrival
// replay's rows, byte for byte.
func TestMatrixCSVMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range []string{"faults", "grayfail", "multitenant", "autoscale"} {
		res := runScenario(t, loadGolden(t, id+".yaml"), seed7())
		dir := filepath.Join(t.TempDir(), id)
		if err := exp.WriteCSV(dir, res.(exp.Tabular)); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "== %s/%s\n%s", id, filepath.Base(f), data)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "matrix_csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("matrix CSV export differs from testdata/matrix_csv.golden\n--- got ---\n%s", got.String())
	}
}

// TestDefaultConfLeavesMatricesAlone: a registry holding only a key at its
// default value must not move a multi-job matrix. It did: the tenant matrix
// applied the registry's default scheduler.mode=FIFO over its FAIR cells,
// so every FAIR row printed its FIFO twin. The matrices set scheduler.mode
// on copies of that registry, never on it.
func TestDefaultConfLeavesMatricesAlone(t *testing.T) {
	for _, id := range []string{"multitenant", "autoscale"} {
		plain := runScenario(t, loadGolden(t, id+".yaml"), seed7()).String()
		s := seed7()
		s.Config = conf.New()
		if err := s.Config.Set("speculation", "false"); err != nil {
			t.Fatal(err)
		}
		if got := runScenario(t, loadGolden(t, id+".yaml"), s).String(); got != plain {
			t.Errorf("%s: -conf speculation=false changed the report\n--- without ---\n%s--- with ---\n%s", id, plain, got)
		}
		if s.Config.IsSet("scheduler.mode") {
			t.Errorf("%s: the run set scheduler.mode on the caller's registry", id)
		}
	}
}

// TestArrivalReplayAppliesConf: the arrival replay builds its engines from
// the conf registry like every other run. It used to ignore it, so any
// -conf left the autoscale report byte-identical.
func TestArrivalReplayAppliesConf(t *testing.T) {
	plain := runScenario(t, loadGolden(t, "autoscale.yaml"), seed7()).String()
	s := seed7()
	s.Config = conf.New()
	if err := s.Config.Set("executor.taskOverheadMillis", "2000"); err != nil {
		t.Fatal(err)
	}
	if got := runScenario(t, loadGolden(t, "autoscale.yaml"), s).String(); got == plain {
		t.Error("executor.taskOverheadMillis=2000 left the autoscale report unchanged")
	}
}

// TestSchedulerModeRejectedOnMultiJobKinds: the tenant and arrival matrices
// fix the inter-job scheduler of every run, so scheduler.mode in their conf,
// from the spec's conf block or the caller's registry, is a one-line compile
// error instead of being silently overridden. The single-job kinds take it.
func TestSchedulerModeRejectedOnMultiJobKinds(t *testing.T) {
	for _, name := range []string{"multitenant.yaml", "autoscale.yaml", "faults.yaml", "terasort-crash.yaml"} {
		sp := loadGolden(t, name)
		wantErr := sp.Kind == KindTenantMatrix || sp.Kind == KindArrivalMatrix
		s := sp.BaseSetup()
		s.Config = conf.New()
		if err := s.Config.Set("scheduler.mode", "FAIR"); err != nil {
			t.Fatal(err)
		}
		_, cliErr := sp.Compile(s)
		sp.Conf = map[string]string{"scheduler.mode": "FIFO"}
		_, specErr := sp.Compile(sp.BaseSetup())
		for from, err := range map[string]error{"-conf": cliErr, "the conf block": specErr} {
			switch {
			case !wantErr && err != nil:
				t.Errorf("%s: scheduler.mode from %s rejected: %v", name, from, err)
			case wantErr && err == nil:
				t.Errorf("%s: scheduler.mode from %s accepted", name, from)
			case wantErr && (!strings.Contains(err.Error(), "scheduler.mode") || strings.Contains(err.Error(), "\n")):
				t.Errorf("%s: scheduler.mode from %s: error %q, want one line naming the key", name, from, err)
			}
		}
	}
}

// TestChaosNamingMissingExecutorRejected: a crash, slow, partition or mayhem
// clause naming an executor the cluster does not have is a one-line
// out-of-range compile error naming the field and the clause — in a single
// run's chaos and in a chaos matrix's schedules — once the setup's node count
// is known; on a cluster large enough the spec compiles.
func TestChaosNamingMissingExecutorRejected(t *testing.T) {
	single := func(clause string) *Spec {
		return &Spec{Version: Version, Name: "s", Kind: KindSingle, Workload: "scan", Policy: "dynamic", Chaos: clause}
	}
	matrix := &Spec{Version: Version, Name: "m", Kind: KindChaosMatrix, Workload: "terasort", Report: "faults",
		Policies: []string{"dynamic"}, Schedules: []string{"quiet", "flaky:0.1,partition4@10%+5%"}}
	for _, tc := range []struct {
		sp           *Spec
		nodes        int
		field, words string
	}{
		{single("crash4@5s"), 4, `field "chaos"`, `clause "crash4@5s": executor 4`},
		{single("flaky,slow:9@5sx3"), 8, `field "chaos"`, `clause "slow:9@5sx3": executor 9`},
		{single("mayhem@60s"), 1, `field "chaos"`, `clause "mayhem@60s": executor 1`},
		{matrix, 4, "schedules[1]", `clause "partition4@10%+5%": executor 4`},
	} {
		s := exp.Default().WithScale(0.02).WithNodes(tc.nodes)
		_, err := tc.sp.Compile(s)
		if err == nil || !errors.Is(err, chaos.ErrOutOfRange) || !strings.Contains(err.Error(), tc.field) ||
			!strings.Contains(err.Error(), tc.words) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s on %d nodes: %v; want one out-of-range line naming %s and %s", tc.sp.Name, tc.nodes, err, tc.field, tc.words)
		}
		if _, err := tc.sp.Compile(s.WithNodes(10)); err != nil {
			t.Errorf("%s on 10 nodes: %v", tc.sp.Name, err)
		}
	}
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

// TestCompileLeavesCallerConfAlone compiles two specs on one setup whose
// registry holds a -conf value: the first spec's conf block must reach its own
// run, not the caller's registry and through it the second spec's run.
func TestCompileLeavesCallerConfAlone(t *testing.T) {
	parse := func(text string) *Spec {
		t.Helper()
		sp, err := Parse("t.yaml", []byte(text))
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	const head = "version: 1\nkind: single\nworkload: scan\npolicy: default\n"
	a := parse(head + "name: a\nconf:\n  speculation: \"true\"\n")
	b := parse(head + "name: b\n")
	s := exp.Default().WithScale(0.02)
	s.Config = conf.New()
	if err := s.Config.Set("shuffle.io.maxRetries", "9"); err != nil {
		t.Fatal(err)
	}
	ca, err := a.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if !ca.Setup.Config.IsSet("speculation") || !ca.Setup.Config.IsSet("shuffle.io.maxRetries") {
		t.Error("spec a's run lost its own conf key or the caller's")
	}
	if s.Config.IsSet("speculation") || cb.Setup.Config.IsSet("speculation") {
		t.Error("spec a's conf block leaked into the caller's registry and spec b's run")
	}
	if got, _ := cb.Setup.Config.Get("shuffle.io.maxRetries"); got != "9" {
		t.Errorf("spec b's run: shuffle.io.maxRetries = %q, want the caller's 9", got)
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
		sched, err := chaos.ParseSchedule(c.clause)
		if err != nil {
			t.Fatalf("%s: %v", c.clause, err)
		}
		got := sched.Plan(quiet, 7)
		if got.String() != c.want.String() {
			t.Errorf("%s: plan name %q, want %q", c.clause, got, c.want)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: plan differs from the constructor-built equivalent", c.clause)
		}
	}
}
