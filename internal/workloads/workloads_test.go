package workloads

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sae/internal/device"
)

func TestAllNineApplications(t *testing.T) {
	all := All(Paper())
	if len(all) != 9 {
		t.Fatalf("applications = %d, want 9 (Table 2)", len(all))
	}
	names := map[string]bool{}
	for _, w := range all {
		if names[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		names[w.Name] = true
		if err := w.Job.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	for _, want := range []string{"terasort", "pagerank", "aggregation", "join", "scan", "bayes", "lda", "nweight", "svm"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
}

// TestByName builds each of the nine workloads under its own name, and
// wants an unknown name's error to list all nine. The order is pinned: it is
// Table 2's, and a seeded hunt draws its workload mutants by index into Names.
func TestByName(t *testing.T) {
	names := Names()
	if want := []string{"aggregation", "bayes", "join", "lda", "nweight", "pagerank", "scan", "terasort", "svm"}; !slices.Equal(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	_, err := ByName("sortbench", Paper())
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
		if w, err := ByName(name, Paper()); err != nil || w.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, w, err)
		}
	}
}

// TestTableNamesItsSpecs: each table entry's constructor builds a spec named
// by the entry's key, so All, Names and ByName agree.
func TestTableNamesItsSpecs(t *testing.T) {
	for i, w := range All(Paper()) {
		if w.Name != table[i].name {
			t.Errorf("table entry %q builds a spec named %q", table[i].name, w.Name)
		}
	}
}

func TestInputSizesMatchTable3(t *testing.T) {
	cfg := Paper()
	cases := map[string]float64{
		"terasort":    111.75,
		"pagerank":    18.56,
		"aggregation": 17.87,
		"join":        17.87,
		"scan":        17.87,
		"bayes":       3.50,
		"lda":         0.63,
		"nweight":     0.28,
		"svm":         107.29,
	}
	for name, gib := range cases {
		w, err := ByName(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := GiB(w.InputBytes); math.Abs(got-gib) > 0.02 {
			t.Errorf("%s input = %.2f GiB, want %.2f (Table 2)", name, got, gib)
		}
	}
}

func TestScalingProportional(t *testing.T) {
	full := Terasort(Config{Nodes: 4, Scale: 1})
	half := Terasort(Config{Nodes: 4, Scale: 0.5})
	if got, want := half.InputBytes*2, full.InputBytes; abs64(got-want) > 2 {
		t.Fatalf("half scale input %d, full %d", half.InputBytes, full.InputBytes)
	}
	// Cluster scaling multiplies data too (Fig. 9's methodology).
	big := Terasort(Config{Nodes: 16, Scale: 1})
	if got, want := big.InputBytes, full.InputBytes*4; abs64(got-want) > 4 {
		t.Fatalf("16-node input %d, want 4x %d", big.InputBytes, full.InputBytes)
	}
}

func TestStageStructure(t *testing.T) {
	cfg := Paper()
	if n := len(Terasort(cfg).Job.Stages); n != 3 {
		t.Errorf("terasort stages = %d, want 3 (§4)", n)
	}
	if n := len(PageRank(cfg).Job.Stages); n != 6 {
		t.Errorf("pagerank stages = %d, want 6 (Fig. 8b)", n)
	}
	if n := len(Aggregation(cfg).Job.Stages); n != 2 {
		t.Errorf("aggregation stages = %d, want 2 (Fig. 8c)", n)
	}
	if n := len(Join(cfg).Job.Stages); n != 3 {
		t.Errorf("join stages = %d, want 3 (Fig. 8d)", n)
	}
}

func TestIOMarking(t *testing.T) {
	cfg := Paper()
	// Terasort: all three stages I/O-marked (§4: "all of which are
	// considered to be I/O intensive").
	for _, st := range Terasort(cfg).Job.Stages {
		if !st.IOMarked() {
			t.Errorf("terasort stage %d not IO-marked", st.ID)
		}
	}
	// PageRank: only first (read) and last (write) marked (§4).
	pr := PageRank(cfg).Job.Stages
	for i, st := range pr {
		want := i == 0 || i == len(pr)-1
		if st.IOMarked() != want {
			t.Errorf("pagerank stage %d IOMarked = %v, want %v", i, st.IOMarked(), want)
		}
	}
	// SQL sinks are unmarked (L2): only the scans are I/O-marked.
	agg := Aggregation(cfg).Job.Stages
	if !agg[0].IOMarked() || agg[1].IOMarked() {
		t.Errorf("aggregation marking = %v/%v, want true/false", agg[0].IOMarked(), agg[1].IOMarked())
	}
}

func TestNominalIOVolumes(t *testing.T) {
	// Task-level I/O (input + shuffle both ways + output) should land in
	// the neighbourhood of Table 2 for the headline entries.
	cases := map[string]struct{ lo, hi float64 }{
		"terasort": {380, 480}, // paper 429.35
		"scan":     {95, 130},  // paper 112.56
		"bayes":    {8.5, 11},  // paper 9.80
		"lda":      {3.2, 4.4}, // paper 3.83
		"nweight":  {9, 11.5},  // paper 10.23
		"svm":      {180, 225}, // paper 203.92
	}
	for name, band := range cases {
		w, err := ByName(name, Paper())
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, st := range w.Job.Stages {
			if st.InputFile != "" {
				for _, in := range w.Inputs {
					if in.Name == st.InputFile {
						total += in.Size
					}
				}
			}
			for _, from := range st.ShuffleFrom {
				total += w.Job.Stages[from].ShuffleWriteBytes // shuffle read
			}
			total += st.ShuffleWriteBytes + st.OutputBytes
		}
		gib := GiB(total)
		if gib < band.lo || gib > band.hi {
			t.Errorf("%s nominal I/O = %.2f GiB, want within [%.0f, %.0f] (Table 2)", name, gib, band.lo, band.hi)
		}
	}
}

// Property: all workloads remain valid with positive task counts under
// arbitrary scales and cluster sizes.
func TestWorkloadScalingProperty(t *testing.T) {
	f := func(scaleMil uint16, nodes uint8) bool {
		cfg := Config{
			Nodes: int(nodes%32) + 1,
			Scale: float64(scaleMil%2000+10) / 1000,
		}
		for _, w := range All(cfg) {
			if err := w.Job.Validate(); err != nil {
				return false
			}
			for _, st := range w.Job.Stages {
				if st.CPUSecondsPerTask < 0 {
					return false
				}
				if st.NumTasks < 0 {
					return false
				}
			}
			if w.InputBytes <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSizes(t *testing.T) {
	cfg := Paper()
	if Terasort(cfg).BlockSize != 128*device.MiB {
		t.Errorf("terasort block size = %d", Terasort(cfg).BlockSize)
	}
	if PageRank(cfg).BlockSize != 32*device.MiB {
		t.Errorf("pagerank block size = %d", PageRank(cfg).BlockSize)
	}
	if Join(cfg).BlockSize != 8*device.MiB {
		t.Errorf("join block size = %d", Join(cfg).BlockSize)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
