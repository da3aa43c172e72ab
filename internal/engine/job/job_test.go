package job

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// fakeContext performs the operations AnalyticOps yields, on counters.
type fakeContext struct {
	stage       *StageSpec
	index       int
	input       int64
	consumed    int64
	cpu         float64
	shuffle     int64
	output      int64
	spilled     int64
	concurrency int
	vcores      int
}

var _ TaskContext = (*fakeContext)(nil)

func (f *fakeContext) Node() int         { return 0 }
func (f *fakeContext) Executor() int     { return 0 }
func (f *fakeContext) Stage() *StageSpec { return f.stage }
func (f *fakeContext) Index() int        { return f.index }
func (f *fakeContext) InputBytes() int64 { return f.input }
func (f *fakeContext) Concurrency() int  { return f.concurrency }
func (f *fakeContext) VirtualCores() int { return f.vcores }

// do performs op and returns its result: the bytes an OpReadInput read.
func (f *fakeContext) do(op Op) int64 {
	switch op.Kind {
	case OpReadInput:
		n := min(f.input-f.consumed, op.Bytes)
		f.consumed += n
		return n
	case OpCompute:
		f.cpu += op.Seconds
	case OpSpill:
		f.spilled += op.Bytes
	case OpWriteShuffle:
		f.shuffle += op.Bytes
	case OpWriteOutput:
		f.output += op.Bytes
	}
	return 0
}

func runAnalytic(t *testing.T, s *StageSpec, idx int, input int64, conc, vcores int) *fakeContext {
	t.Helper()
	fc := &fakeContext{stage: s, index: idx, input: input, concurrency: conc, vcores: vcores}
	var a AnalyticOps
	a.Begin(fc)
	op := a.Next(fc, 0)
	for op.Kind != OpDone {
		op = a.Next(fc, fc.do(op))
	}
	if op.Err != nil {
		t.Fatal(op.Err)
	}
	return fc
}

func TestAnalyticWorkConservation(t *testing.T) {
	s := &StageSpec{
		ID: 0, Name: "x", NumTasks: 4,
		CPUSecondsPerTask: 2.5,
		ShuffleWriteBytes: 100 << 20,
		OutputFile:        "out",
		OutputBytes:       64 << 20,
	}
	fc := runAnalytic(t, s, 0, 200<<20, 1, 32)
	if fc.consumed != 200<<20 {
		t.Fatalf("consumed %d, want full input", fc.consumed)
	}
	if fc.cpu < 2.49 || fc.cpu > 2.51 {
		t.Fatalf("cpu = %v, want 2.5", fc.cpu)
	}
	// Task 0 of 4 gets exactly total/4 (remainders go to low indices).
	if fc.shuffle != 25<<20 {
		t.Fatalf("shuffle = %d, want %d", fc.shuffle, 25<<20)
	}
	if fc.output != 16<<20 {
		t.Fatalf("output = %d, want %d", fc.output, 16<<20)
	}
	if fc.spilled != 0 {
		t.Fatalf("spilled %d without pressure", fc.spilled)
	}
}

func TestAnalyticSpillScalesWithConcurrency(t *testing.T) {
	s := &StageSpec{ID: 0, NumTasks: 1, SpillPressure: 2, ShuffleWriteBytes: 0}
	lo := runAnalytic(t, s, 0, 128<<20, 2, 32)
	hi := runAnalytic(t, s, 0, 128<<20, 32, 32)
	if lo.spilled >= hi.spilled {
		t.Fatalf("spill should grow with concurrency: %d vs %d", lo.spilled, hi.spilled)
	}
	// Quadratic: at full width the spill equals pressure × volume.
	want := int64(2 * 128 << 20)
	if diff := hi.spilled - want; diff > 1<<20 || diff < -1<<20 {
		t.Fatalf("full-width spill = %d, want ≈%d", hi.spilled, want)
	}
	if solo := runAnalytic(t, s, 0, 128<<20, 1, 32); solo.spilled != 0 {
		t.Fatalf("solo task spilled %d", solo.spilled)
	}
}

// Property: per-task shares sum exactly to the stage total for any split.
func TestPerTaskExactPartition(t *testing.T) {
	f := func(total uint32, tasks uint8) bool {
		n := int(tasks%64) + 1
		var sum int64
		for i := 0; i < n; i++ {
			sum += perTask(int64(total), n, i)
		}
		return sum == int64(total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: chunk shares also partition exactly and are near-even.
func TestChunkShareExactPartition(t *testing.T) {
	f := func(total uint32, chunks uint8) bool {
		n := int(chunks%32) + 1
		var sum int64
		var lo, hi int64 = int64(total), 0
		for i := 0; i < n; i++ {
			c := chunkShare(int64(total), n, i)
			sum += c
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return sum == int64(total) && hi-lo <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesShapeErrors(t *testing.T) {
	good := &JobSpec{Name: "ok", Stages: []*StageSpec{
		{ID: 0, Name: "a", NumTasks: 2, ShuffleWriteBytes: 10},
		{ID: 1, Name: "b", NumTasks: 2, ShuffleFrom: []int{0}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []*JobSpec{
		{Name: "neg-cpu", Stages: []*StageSpec{{ID: 0, NumTasks: 1, CPUSecondsPerTask: -1}}},
		{Name: "neg-tasks", Stages: []*StageSpec{{ID: 0, NumTasks: -2, InputFile: "x"}}},
		{Name: "self-shuffle", Stages: []*StageSpec{{ID: 0, NumTasks: 1, ShuffleFrom: []int{0}}}},
	}
	for _, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s accepted", spec.Name)
		}
	}
}

func TestIOMarkedSemantics(t *testing.T) {
	cases := []struct {
		s    StageSpec
		want bool
	}{
		{StageSpec{InputFile: "f"}, true},
		{StageSpec{OutputFile: "o"}, true},
		{StageSpec{OutputFile: "o", SQLSink: true}, false},
		{StageSpec{ShuffleFrom: []int{0}}, false},
		{StageSpec{}, false},
	}
	for i, c := range cases {
		if got := c.s.IOMarked(); got != c.want {
			t.Errorf("case %d: IOMarked = %v, want %v", i, got, c.want)
		}
	}
}

func TestTaskMetricsDuration(t *testing.T) {
	tm := TaskMetrics{Start: 5e9, End: 7e9}
	if tm.Duration() != 2e9 {
		t.Fatalf("duration = %v", tm.Duration())
	}
}

// TestDecisionReason pins the text each verdict renders, the lines
// sae-run -decisions prints.
func TestDecisionReason(t *testing.T) {
	for _, c := range []struct {
		v       Verdict
		threads int
		want    string
	}{
		{Verdict{Action: ActFirst, Signal: 1.0564e-8}, 4, "first interval, ζ=1.056e-08"},
		{Verdict{Action: ActFirst, Signal: 0.4, Util: true}, 4, "first interval, util=0.4"},
		{Verdict{Action: ActImproved, Prev: 0.4, Signal: 0.7, Util: true}, 8, "util improved 0.4 → 0.7"},
		{Verdict{Action: ActRollback, Prev: 4.642e-9, Signal: 7.533e-9}, 8, "ζ worsened 4.642e-09 → 7.533e-09; rollback and freeze"},
		{Verdict{Action: ActStay, Prev: 2, Signal: 3}, 8, "ζ worsened 2 → 3; freeze without rollback"},
		{Verdict{Action: ActStartedAtBound}, 2, "started at cmax"},
		{Verdict{Action: ActStartedAtBound, Cmin: true}, 2, "started at cmin"},
		{Verdict{Action: ActReachedBound}, 32, "reached cmax with improving congestion"},
		{Verdict{Action: ActReachedBound, Util: true, Cmin: true}, 2, "reached cmin with improving utilization"},
		{Verdict{Action: ActAIMD, From: 6, Signal: 0.25}, 3, "AIMD 6→3 (ζ=0.25)"},
		{Verdict{Action: ActReprobe}, 2, "re-probe: restarting hill climb"},
		{Verdict{}, 2, ""},
	} {
		if got := (Decision{Threads: c.threads, Verdict: c.v}).Reason(); got != c.want {
			t.Errorf("%+v: Reason() = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestDecisionSize pins the decision record's size: the verdict replaced a
// 16-byte reason string and may add at most 8 bytes to the 80-byte record.
func TestDecisionSize(t *testing.T) {
	if n := unsafe.Sizeof(Decision{}); n > 88 {
		t.Fatalf("job.Decision is %d bytes, want at most 88", n)
	}
}
