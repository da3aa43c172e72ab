package sae

import (
	"strings"
	"testing"

	"sae/internal/conf"
	"sae/internal/exp"
)

// TestRunMultiSchedulerBeatsConf: the inter-job scheduler RunMulti is given
// wins over the registry's scheduler.mode. A registry holding only a key at
// its default value used to apply the default scheduler.mode=FIFO over
// FairSharing, so the fair run came out as the FIFO one.
func TestRunMultiSchedulerBeatsConf(t *testing.T) {
	mix := func() []*Workload {
		cfg := ScaledDown(0.02)
		return []*Workload{workloadNamed(t, "terasort", cfg), workloadNamed(t, "pagerank", cfg)}
	}
	run := func(s Setup, sched InterJobPolicy) string {
		t.Helper()
		reps, err := RunMulti(s, mix(), Adaptive(), sched)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, rep := range reps {
			b.WriteString(rep.String())
		}
		return b.String()
	}
	s := DAS5().WithScale(0.02)
	fair, fifo := run(s, FairSharing()), run(s, FIFO())
	if fair == fifo {
		t.Fatal("the mix runs the same under FIFO and fair sharing: the test cannot tell them apart")
	}
	s.Config = conf.New()
	if err := s.Config.Set("speculation", "false"); err != nil {
		t.Fatal(err)
	}
	if got := run(s, FairSharing()); got != fair {
		t.Errorf("a default-only registry changed the fair-sharing reports\n--- without ---\n%s--- with ---\n%s", fair, got)
	}
}

func workloadNamed(t *testing.T, name string, cfg WorkloadConfig) *Workload {
	t.Helper()
	w, err := WorkloadByName(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPublicRunTerasort(t *testing.T) {
	rep, err := Run(DAS5().WithScale(0.1), Terasort(ScaledDown(0.1)), Adaptive())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != "dynamic" {
		t.Fatalf("policy = %q", rep.Policy)
	}
	if len(rep.Stages) != 3 {
		t.Fatalf("stages = %d", len(rep.Stages))
	}
	if rep.Runtime <= 0 {
		t.Fatal("no runtime")
	}
}

func TestPublicPolicies(t *testing.T) {
	cases := []struct {
		p    Policy
		name string
	}{
		{Default(), "default"},
		{Static(8), "static-8"},
		{Adaptive(), "dynamic"},
		{AdaptiveWith(4, 0.2), "dynamic-cmin4"},
		{BestFit(map[int]int{0: 4}), "static-bestfit"},
	}
	for _, c := range cases {
		if c.p.Name() != c.name {
			t.Errorf("policy name = %q, want %q", c.p.Name(), c.name)
		}
	}
}

func TestPublicWorkloadByName(t *testing.T) {
	for _, name := range []string{"terasort", "pagerank", "aggregation", "join", "scan", "bayes", "lda", "nweight", "svm"} {
		w, err := WorkloadByName(name, ScaledDown(0.05))
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != name {
			t.Fatalf("got %q", w.Name)
		}
	}
	if _, err := WorkloadByName("nope", PaperScale()); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if len(AllWorkloads(ScaledDown(0.05))) != 9 {
		t.Fatal("AllWorkloads != 9")
	}
}

func TestPublicDataflow(t *testing.T) {
	ctx, err := NewContext(ContextOptions{Policy: Default()})
	if err != nil {
		t.Fatal(err)
	}
	text := TextFile(ctx, "t/in", []string{"a b", "b c c"}, 2)
	words := FlatMap(text, func(l string) []string { return strings.Fields(l) })
	pairs := MapData(words, func(w string) Pair[string, int] { return Pair[string, int]{Key: w, Value: 1} })
	counts := ReduceByKey(pairs, func(a, b int) int { return a + b }, 2)
	out, rep, err := Collect(counts)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, p := range out {
		got[p.Key] = p.Value
	}
	if got["a"] != 1 || got["b"] != 2 || got["c"] != 2 {
		t.Fatalf("counts = %v", got)
	}
	if rep == nil || len(rep.Stages) != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestPublicDataflowExtendedOps(t *testing.T) {
	ctx, err := NewContext(ContextOptions{Policy: Default()})
	if err != nil {
		t.Fatal(err)
	}
	a := Parallelize(ctx, []int{1, 2, 2, 3}, 2)
	b := Parallelize(ctx, []int{3, 4}, 1)
	u := Distinct(Union(a, b, 3), 2)
	n, _, err := CountData(u)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("distinct(union) = %d, want 4", n)
	}
	first2, _, err := Take(CacheData(u), 2)
	if err != nil || len(first2) != 2 {
		t.Fatalf("take = %v, %v", first2, err)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != len(Experiments()) {
		t.Fatalf("ids = %d, experiments = %d", len(ids), len(Experiments()))
	}
	// Presentation order: tables, figures in numeric order, extensions.
	if ids[0] != "table1" || ids[1] != "table2" || ids[2] != "fig1" {
		t.Fatalf("order = %v", ids[:3])
	}
	if last := ids[len(ids)-1]; last != "multitenant" {
		t.Fatalf("extensions should sort last alphabetically, got %q", last)
	}
	// fig10 after fig9 (numeric, not lexicographic).
	var i9, i10 int
	for i, id := range ids {
		if id == "fig9" {
			i9 = i
		}
		if id == "fig10" {
			i10 = i
		}
	}
	if i10 != i9+1 {
		t.Fatalf("fig10 should follow fig9: %v", ids)
	}
}

// TestMultiPartTablesHaveDistinctNames runs the whole index at a small scale:
// no two parts of a multi-part result may export a CSV table under one name,
// since the merged export keeps only the last.
func TestMultiPartTablesHaveDistinctNames(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	s := DAS5().WithScale(0.02)
	for _, e := range experiments {
		res, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		parts, ok := res.(multiResult)
		if !ok {
			continue
		}
		owner := map[string]int{}
		for i, part := range parts {
			tab, ok := part.(exp.Tabular)
			if !ok {
				t.Fatalf("%s: part %d exports no tables", e.ID, i)
			}
			for name := range tab.CSVTables() {
				if j, dup := owner[name]; dup {
					t.Errorf("%s: parts %d and %d both export table %q", e.ID, j, i, name)
				}
				owner[name] = i
			}
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", DAS5()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentTable1(t *testing.T) {
	res, err := RunExperiment("table1", DAS5())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "117") {
		t.Fatalf("table1 output missing total: %s", res)
	}
}

func TestDeviceProfilesExported(t *testing.T) {
	hb, hn := HDD().Peak()
	sb, sn := SSD().Peak()
	if hb >= sb {
		t.Fatal("SSD should out-peak HDD")
	}
	if hn != 4 {
		t.Fatalf("HDD peak at %d streams, want 4", hn)
	}
	if sn < 8 {
		t.Fatalf("SSD peak at %d streams", sn)
	}
}
