package chaos

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseQuiet(t *testing.T) {
	for _, spec := range []string{"", "quiet", "none", "  quiet  "} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p != nil {
			t.Fatalf("Parse(%q) = %+v, want nil", spec, p)
		}
	}
}

func TestParseCrash(t *testing.T) {
	p, err := Parse("crash@90s")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 1 {
		t.Fatalf("crashes = %d, want 1", len(p.Crashes))
	}
	c := p.Crashes[0]
	if c.Exec != 1 || c.At != 90*time.Second || c.RestartAfter != 0 {
		t.Fatalf("crash = %+v", c)
	}

	p, err = Parse("crash2@2m+30s")
	if err != nil {
		t.Fatal(err)
	}
	c = p.Crashes[0]
	if c.Exec != 2 || c.At != 2*time.Minute || c.RestartAfter != 30*time.Second {
		t.Fatalf("crash = %+v", c)
	}
}

func TestParseCombined(t *testing.T) {
	p, err := Parse("crash@1m+10s,flaky:0.02,fetch:0.04,seed:7")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 1 || p.TaskFaultRate != 0.02 || p.FetchFaultRate != 0.04 || p.Seed != 7 {
		t.Fatalf("plan = %+v", p)
	}
	// The name is the comma-join of the constructors' resolved names.
	if p.Name != "crash1@1m0s+10s,flaky:0.02,fetch:0.04" {
		t.Fatalf("name = %q", p.Name)
	}
}

// TestScheduleSingleClauseIsConstructor: a one-clause schedule resolves to
// exactly the plan its constructor builds, on the absolute and the
// percentage path alike.
func TestScheduleSingleClauseIsConstructor(t *testing.T) {
	ref := 151200 * time.Millisecond
	cases := []struct {
		spec string
		want *Plan
	}{
		{"crash@90s", CrashAt(1, 90*time.Second)},
		{"crash:0@45%", CrashAt(0, ref*45/100)},
		{"crash2@45%+20s", CrashRestart(2, ref*45/100, 20*time.Second)},
		{"slow:3@25%x4", SlowAt(3, ref/4, 4)},
		{"slow3@10s", SlowAt(3, 10*time.Second, 2)},
		{"partition:2@50%+10%", PartitionAt(2, ref/2, ref/10)},
		{"flaky", Flaky(0.05, 9)},
		{"fetch:1", FetchStorm(1, 9)},
		{"corrupt:0.02", Corrupt(0.02, 9)},
		{"mayhem@100%", Mayhem(ref, 9)},
		{"corrupt:0.02,seed:4", Corrupt(0.02, 4)},
	}
	for _, c := range cases {
		s, err := ParseSchedule(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if got := s.Plan(ref, 9); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: plan %+v, want %+v", c.spec, got, c.want)
		}
	}
}

// TestScheduleMultiClause: clauses merge in order, percentages are allowed
// in any clause, and the seed is the spec's seed:N if present, else the
// caller's.
func TestScheduleMultiClause(t *testing.T) {
	s, err := ParseSchedule("crash@50%+10%, slow:2@25%x3, flaky:0.02, flaky:0.04, partition0@1s+2s")
	if err != nil {
		t.Fatal(err)
	}
	got := s.Plan(200*time.Second, 11)
	want := &Plan{
		Name:          "crash1@1m40s+20s,slow2@50sx3,flaky:0.02,flaky:0.04,partition0@1s+2s",
		Seed:          11,
		Crashes:       []Crash{{Exec: 1, At: 100 * time.Second, RestartAfter: 20 * time.Second}},
		Slows:         []Slow{{Exec: 2, At: 50 * time.Second, Factor: 3}},
		Partitions:    []Partition{{Exec: 0, At: time.Second, Duration: 2 * time.Second}},
		TaskFaultRate: 0.04,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan = %+v\nwant   %+v", got, want)
	}
	// The same schedule resolves afresh against another reference.
	if at := s.Plan(100*time.Second, 11).Crashes[0].At; at != 50*time.Second {
		t.Fatalf("second resolution: crash at %v, want 50s", at)
	}

	s, err = ParseSchedule("seed:5,mayhem@100s,corrupt")
	if err != nil {
		t.Fatal(err)
	}
	got = s.Plan(0, 11)
	if got.Seed != 5 || got.Name != "mayhem@1m40s,corrupt:0.01" || got.TaskFaultRate != 0.02 || got.CorruptRate != 0.01 {
		t.Fatalf("seeded plan = %+v", got)
	}

	// No fault clause at all is the quiet plan.
	for _, spec := range []string{"seed:3", " , "} {
		s, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if p := s.Plan(time.Minute, 1); p != nil {
			t.Fatalf("%q resolved to %+v, want the quiet plan", spec, p)
		}
	}
}

// TestScheduleRejects pins the one set of bounds both entry points share.
func TestScheduleRejects(t *testing.T) {
	for _, spec := range []string{
		"flaky:0", "fetch:-0.1", "corrupt:1.5", "flaky:NaN", // rates lie in (0, 1]
		"crash-1@10s", "slow:-2@10s", // executors are non-negative
		"crash@-10s", "crash@10s+-5s", "slow@-1s", "partition@-1s+5s", "mayhem@-100s", // no negative times
		"crash@101%", "crash@-5%", "crash@4.5%", "partition@10%+0%", "partition@10s+0s",
		"slow@10sxNaN", "slow@10sx+Inf",
		"quiet,crash@10s", "crash@10s,bogus", "flakey", "mayhem",
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", spec)
		} else if !strings.HasPrefix(err.Error(), "chaos: ") {
			t.Errorf("ParseSchedule(%q): error %q lacks the chaos: prefix", spec, err)
		}
	}
	// A slow factor past 1e3 parses but is out of range: at 1e9 a run never
	// ends, and below 1e-3 (1e-320 made the device's rate +Inf) it is
	// infinitely fast. The error names the clause and carries ErrOutOfRange,
	// which the CLIs exit 2 on; a malformed factor is not a range error.
	for _, f := range []string{"1e9", "1000.5", "1e400", "+Inf", "1e-320", "0.00099", "0", "-2"} {
		spec := "slow1@5sx" + f
		_, err := ParseSchedule(spec)
		if !errors.Is(err, ErrOutOfRange) || !strings.HasPrefix(err.Error(), `chaos: clause "`+spec+`": bad factor`) {
			t.Errorf("ParseSchedule(%q) = %v, want the clause's out-of-range error", spec, err)
		}
	}
	for _, spec := range []string{"slow1@5sx1e3", "slow1@5sx0.5", "slow1@5sx1e-3"} {
		if _, err := ParseSchedule(spec); err != nil {
			t.Errorf("ParseSchedule(%q): %v", spec, err)
		}
	}
	if _, err := ParseSchedule("slow1@5sxabc"); err == nil || errors.Is(err, ErrOutOfRange) {
		t.Errorf("a malformed factor: %v, want an error other than ErrOutOfRange", err)
	}
	// Parse is the absolute-time entry point: it has no reference runtime.
	if _, err := Parse("crash@45%"); err == nil || !strings.Contains(err.Error(), "percentage") {
		t.Errorf("Parse accepted a percentage time: %v", err)
	}
}

func TestParseDefaults(t *testing.T) {
	p, err := Parse("flaky,fetch")
	if err != nil {
		t.Fatal(err)
	}
	if p.TaskFaultRate != 0.05 || p.FetchFaultRate != 0.1 {
		t.Fatalf("default rates = %g/%g", p.TaskFaultRate, p.FetchFaultRate)
	}
}

func TestParseMayhem(t *testing.T) {
	p, err := Parse("mayhem@100s")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 1 || p.Crashes[0].At != 40*time.Second || p.Crashes[0].RestartAfter != 20*time.Second {
		t.Fatalf("mayhem crashes = %+v", p.Crashes)
	}
	if p.TaskFaultRate <= 0 || p.FetchFaultRate <= 0 {
		t.Fatalf("mayhem rates = %g/%g", p.TaskFaultRate, p.FetchFaultRate)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{"crash", "crash@", "crashx@1m", "flaky:2", "bogus", "seed:x", "crash@1m+x"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestTaskFaultDeterministic(t *testing.T) {
	a := &Plan{Seed: 3, TaskFaultRate: 0.3}
	b := &Plan{Seed: 3, TaskFaultRate: 0.3}
	for stage := 0; stage < 3; stage++ {
		for task := 0; task < 50; task++ {
			f1, at1 := a.TaskFault(stage, task, 0, 3)
			f2, at2 := b.TaskFault(stage, task, 0, 3)
			if f1 != f2 || at1 != at2 {
				t.Fatalf("stage %d task %d: (%v,%g) vs (%v,%g)", stage, task, f1, at1, f2, at2)
			}
		}
	}
}

func TestTaskFaultRate(t *testing.T) {
	p := &Plan{Seed: 1, TaskFaultRate: 0.2}
	hits := 0
	const n = 5000
	for task := 0; task < n; task++ {
		if ok, frac := p.TaskFault(0, task, 0, 3); ok {
			hits++
			if frac < 0.1 || frac >= 0.9 {
				t.Fatalf("fault fraction %g out of [0.1, 0.9)", frac)
			}
		}
	}
	got := float64(hits) / n
	if got < 0.15 || got > 0.25 {
		t.Fatalf("fault rate = %.3f, want ≈0.2", got)
	}
}

func TestInjectionRespectsAttemptBudget(t *testing.T) {
	p := &Plan{Seed: 1, TaskFaultRate: 1, FetchFaultRate: 1}
	// maxInjected is 2: attempts 0 and 1 fault, attempt 2 does not.
	for attempt := 0; attempt < 5; attempt++ {
		want := attempt < 2
		if ok, _ := p.TaskFault(0, 0, attempt, 3); ok != want {
			t.Fatalf("TaskFault attempt %d = %v, want %v", attempt, ok, want)
		}
		if ok := p.FetchFault(0, 0, attempt, 3); ok != want {
			t.Fatalf("FetchFault attempt %d = %v, want %v", attempt, ok, want)
		}
	}
	// A tighter engine budget (task.maxFailures = 2 ⇒ budget 1) wins.
	if ok, _ := p.TaskFault(0, 0, 1, 1); ok {
		t.Fatal("TaskFault ignored the engine attempt budget")
	}
}

// TestCorruptReplicaHighChecksum pins the corruption verdicts of checksums at
// and above 2^31 to the ones amd64 has always rolled. Passed through int, such
// a sum went negative on a 32-bit GOARCH and rolled other dice (the second
// column is what 386 rolled), so the same seed corrupted other replicas there.
func TestCorruptReplicaHighChecksum(t *testing.T) {
	p := Corrupt(0.5, 7)
	for _, c := range []struct {
		sum         uint32
		want, int32 string // verdicts for nodes 0..7, 1 = rotten
	}{
		{1 << 31, "00000011", "11010011"},
		{0x9e3779b9, "00001101", "01000011"},
		{0xdeadbeef, "01110101", "11110111"},
		{0xffffffff, "10010111", "01010010"},
	} {
		got := ""
		for node := 0; node < 8; node++ {
			if p.CorruptReplica(c.sum, node) {
				got += "1"
			} else {
				got += "0"
			}
		}
		if got != c.want {
			t.Errorf("CorruptReplica(%#x, 0..7) = %s, want %s (%s is the sum passed through a 32-bit int)", c.sum, got, c.want, c.int32)
		}
	}
}

func TestSeedChangesFaults(t *testing.T) {
	a := &Plan{Seed: 1, TaskFaultRate: 0.2}
	b := &Plan{Seed: 2, TaskFaultRate: 0.2}
	same := true
	for task := 0; task < 200; task++ {
		fa, _ := a.TaskFault(0, task, 0, 3)
		fb, _ := b.TaskFault(0, task, 0, 3)
		if fa != fb {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault sets")
	}
}

func TestEmptyAndString(t *testing.T) {
	var p *Plan
	if !p.Empty() || p.String() != "quiet" {
		t.Fatal("nil plan should be quiet/empty")
	}
	if CrashAt(1, time.Minute).Empty() {
		t.Fatal("crash plan reported empty")
	}
	if got := CrashRestart(2, time.Minute, 10*time.Second).String(); got != "crash2@1m0s+10s" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSortedCrashes(t *testing.T) {
	p := &Plan{Crashes: []Crash{
		{Exec: 2, At: 30 * time.Second},
		{Exec: 1, At: 10 * time.Second},
		{Exec: 0, At: 30 * time.Second},
	}}
	got := p.SortedCrashes()
	if got[0].Exec != 1 || got[1].Exec != 0 || got[2].Exec != 2 {
		t.Fatalf("sorted = %+v", got)
	}
}

func TestParseGrayClauses(t *testing.T) {
	p, err := Parse("slow:1@60sx4,partition:2@90s+45s,corrupt:0.02")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Slows) != 1 || p.Slows[0] != (Slow{Exec: 1, At: time.Minute, Factor: 4}) {
		t.Fatalf("slows = %+v", p.Slows)
	}
	if len(p.Partitions) != 1 ||
		p.Partitions[0] != (Partition{Exec: 2, At: 90 * time.Second, Duration: 45 * time.Second}) {
		t.Fatalf("partitions = %+v", p.Partitions)
	}
	if p.CorruptRate != 0.02 {
		t.Fatalf("corrupt rate = %g", p.CorruptRate)
	}

	// Defaults: executor 1, factor 2, corrupt rate 0.01.
	p, err = Parse("slow@10s,corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Slows[0] != (Slow{Exec: 1, At: 10 * time.Second, Factor: 2}) {
		t.Fatalf("default slow = %+v", p.Slows[0])
	}
	if p.CorruptRate != 0.01 {
		t.Fatalf("default corrupt rate = %g", p.CorruptRate)
	}

	for _, bad := range []string{
		"slow", "slow@", "slow:x@10s", "slow@10sx0", "slow@10sx-1",
		"partition@10s", "partition:1@10s", "partition@10s+0s", "partition@10s+x",
		"corrupt:2", "corrupt:x",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestPartitionedWindows(t *testing.T) {
	p := &Plan{Partitions: []Partition{{Exec: 1, At: 10 * time.Second, Duration: 5 * time.Second}}}
	cases := []struct {
		exec int
		at   time.Duration
		want bool
	}{
		{1, 9 * time.Second, false},
		{1, 10 * time.Second, true}, // window start inclusive
		{1, 14 * time.Second, true},
		{1, 15 * time.Second, false}, // window end exclusive
		{2, 12 * time.Second, false}, // other executor
	}
	for _, c := range cases {
		if got := p.Partitioned(c.exec, c.at); got != c.want {
			t.Errorf("Partitioned(%d, %v) = %v, want %v", c.exec, c.at, got, c.want)
		}
	}
	var nilPlan *Plan
	if nilPlan.Partitioned(1, time.Second) {
		t.Error("nil plan reported a partition")
	}
}

// FuzzParsePlan fuzzes the chaos grammar: ParseSchedule must never panic,
// an accepted schedule must resolve (at a fixed reference runtime) to an
// internally consistent plan, and that plan's name — the comma-join of the
// constructors' resolved names — must itself parse, through the
// absolute-time Parse, to a plan of the same name.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"", "quiet", "none",
		"crash@90s", "crash2@2m+30s", "mayhem@100s",
		"flaky", "flaky:0.02", "fetch:0.04", "seed:7",
		"slow:1@60sx4", "slow@10s", "partition:2@90s+45s", "corrupt:0.02", "corrupt",
		"crash@1m+10s,flaky:0.02,fetch:0.04,seed:7",
		"slow:1@60sx4,partition:2@90s+45s,corrupt:0.02",
		"crash1@45%", "crash1@45%+20%", "slow1@25%x4", "partition1@25%+20%", "mayhem@100%",
		"crash:0@10%+5s,slow2@1.5sx1e3,partition@50%+1%,fetch:1,seed:-3",
		"seed:9,corrupt:1e-05,flaky:0.5,flaky",
		"crash", "slow@10sx0", "partition@10s", "corrupt:2", "bogus", "seed:x", "crash@101%", "flaky:0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		p := s.Plan(1000*time.Second, 3)
		if p == nil {
			return // quiet
		}
		for _, c := range p.Crashes {
			if c.Exec < 0 || c.At < 0 || c.RestartAfter < 0 {
				t.Fatalf("%q resolved to crash %+v", spec, c)
			}
		}
		for _, s := range p.Slows {
			if !(s.Factor > 0) || s.Exec < 0 || s.At < 0 {
				t.Fatalf("%q resolved to slow %+v", spec, s)
			}
		}
		for _, w := range p.Partitions {
			if w.Duration <= 0 || w.Exec < 0 || w.At < 0 {
				t.Fatalf("%q resolved to partition %+v", spec, w)
			}
		}
		for _, rate := range []float64{p.TaskFaultRate, p.FetchFaultRate, p.CorruptRate} {
			if !(rate >= 0 && rate <= 1) {
				t.Fatalf("%q resolved to rate %g outside [0,1]", spec, rate)
			}
		}
		if p.Empty() {
			t.Fatalf("%q resolved to a non-nil empty plan %+v", spec, p)
		}
		q, err := Parse(p.Name)
		if err != nil {
			t.Fatalf("plan name %q (from %q) does not re-parse: %v", p.Name, spec, err)
		}
		if q.String() != p.String() {
			t.Fatalf("re-parse of %q changed the plan name: %q vs %q", spec, q, p)
		}
	})
}
