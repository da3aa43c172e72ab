package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
	"time"

	"sae/internal/engine/job"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/controllers.golden from the controllers under test")

// diffPolicies are the adaptive configurations the differential test pins.
// logPinned marks the ones whose decision-log text is part of the golden.
var diffPolicies = []struct {
	name      string
	policy    job.Policy
	logPinned bool
}{
	{"dynamic", DefaultDynamic(), true},
	{"dynamic-cmin1", Dynamic(1, 0), true},
	{"dynamic-cmin4", Dynamic(4, 0), true},
	{"dynamic-reprobe20", Dynamic(0, 20), true},
	{"dynamic-tol0.5", Adaptive{p: climb{cmin: 2, margin: 0.5}}, true},
	{"dynamic-cmin3-tol0.01-reprobe7", Adaptive{p: climb{cmin: 3, margin: 0.01}, reprobe: 7}, true},
	{"descending", Descending(), true},
	{"descending-cmin1", Adaptive{p: climb{cmin: 1, margin: 0.10, down: true}}, true},
	{"descending-cmin4-tol0.3", Adaptive{p: climb{cmin: 4, margin: 0.3, down: true}}, true},
	{"norollback", NoRollback(), false},
	{"norollback-cmin1-tol0.02", Adaptive{p: climb{cmin: 1, margin: 0.02, stay: true}}, false},
	{"util", UtilizationDriven(), false},
	{"util-cmin1-gain0.05", Adaptive{p: climb{cmin: 1, margin: 0.05, util: true}}, false},
	{"aimd", AIMD(), true},
	{"aimd-cmin1-step3-tol0.02", Adaptive{p: aimd{cmin: 1, step: 3, tol: 0.02}}, true},
	{"aimd-cmin4-step1", Adaptive{p: aimd{cmin: 4, step: 1, tol: 0.10}}, true},
}

// splitmix64 keeps the synthetic streams independent of math/rand's
// generator, so the goldens survive a toolchain change.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	x := uint64(*s)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// driveController runs a three-stage, 900-task synthetic job through one
// controller the way an executor would: the pool holds at most `threads`
// tasks, a completion is reported, the returned size applies to the next
// launches. Tasks launched before a resize finish after it (they straddle
// it), a stage hands over with stragglers still in flight (their completions
// reach the controller as stale-stage reports), roughly one task in eight
// moves no bytes, and on every third seed stage 1 is pure CPU. Task
// durations stretch once occupancy passes a per-seed knee, so different
// seeds stop the climb at different rungs.
//
// The result is the whole observable sequence: per stage
// "InitialThreads/StageStart", then "call:threads" for every TaskDone whose
// answer was not (previous threads, false) — suffixed "=" in the one shape
// where the count moved without changed being set.
func driveController(p job.Policy, cmax int, seed uint64) (seq string, decisions string) {
	const perStage = 300
	exec := job.ExecutorInfo{ID: 1, Node: 1, MaxThreads: cmax}
	c := p.NewController(exec)
	rng := splitmix64(seed)
	knee := 1 << (seed % 6)
	cpuStage := seed%3 == 0

	var b strings.Builder
	var running []job.TaskMetrics
	var now time.Duration
	call := 0
	threads := 0
	complete := func() job.TaskMetrics {
		first := 0
		for i, t := range running {
			if t.End < running[first].End {
				first = i
			}
		}
		t := running[first]
		running = append(running[:first], running[first+1:]...)
		now = t.End
		th, changed := c.TaskDone(t)
		switch {
		case changed:
			fmt.Fprintf(&b, " %d:%d", call, th)
		case th != threads:
			fmt.Fprintf(&b, " %d:%d=", call, th)
		}
		threads = th
		call++
		return t
	}
	for stage := 0; stage < 3; stage++ {
		m := job.StageMeta{ID: stage, Name: fmt.Sprintf("s%d", stage), NumTasks: perStage, IOMarked: stage != 1}
		initial := p.InitialThreads(exec, m)
		threads = c.StageStart(m)
		fmt.Fprintf(&b, " | s%d %d/%d", stage, initial, threads)
		launched, done := 0, 0
		// Hand over to the next stage with up to ten stragglers in flight.
		for launched < perStage || done < perStage-10 {
			for len(running) < threads && launched < perStage {
				occ := len(running) + 1
				dur := time.Duration(100+rng.intn(400)) * time.Millisecond
				if occ > knee {
					dur = dur * time.Duration(occ) / time.Duration(knee)
				}
				t := job.TaskMetrics{
					Stage: stage, Index: launched,
					Start: now, End: now + dur,
					BlockedIO:    dur * time.Duration(rng.intn(80)) / 100,
					DiskBusyFrac: float64(min(occ, knee)*100+rng.intn(10)) / float64(knee*100+10),
				}
				if rng.intn(8) != 0 && !(cpuStage && stage == 1) {
					t.BytesMoved = 1<<20 + int64(rng.intn(8<<20))
				}
				running = append(running, t)
				launched++
			}
			if complete().Stage == stage {
				done++
			}
		}
	}
	for len(running) > 0 {
		complete()
	}

	h := fnv.New64a()
	ds := c.Decisions()
	for _, d := range ds {
		fmt.Fprintf(h, "%d|%d|%d|%+v|%s\n", d.At, d.Stage, d.Threads, d.Interval, d.Reason())
	}
	return b.String(), fmt.Sprintf("%d/%016x", len(ds), h.Sum64())
}

// TestControllersMatchParentGoldens is the differential test for the MAPE-K
// loop: testdata/controllers.golden was captured from the five hand-written
// controllers that preceded `loop` (run with -update on that commit), and
// every StageStart / InitialThreads / (threads, changed) answer must stay
// exactly as it was. For Dynamic, Descending and AIMD the decision log (time,
// stage, threads, interval, reason text) is pinned too, as a count and hash.
func TestControllersMatchParentGoldens(t *testing.T) {
	const path = "testdata/controllers.golden"
	var b strings.Builder
	for _, pc := range diffPolicies {
		for _, cmax := range []int{1, 2, 3, 8, 32} {
			for seed := uint64(1); seed <= 6; seed++ {
				seq, dec := driveController(pc.policy, cmax, seed)
				fmt.Fprintf(&b, "%s cmax=%d seed=%d", pc.name, cmax, seed)
				if pc.logPinned {
					fmt.Fprintf(&b, " log=%s", dec)
				}
				b.WriteString(seq)
				b.WriteByte('\n')
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	got := strings.Split(b.String(), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d differs\n got: %s\nwant: %s", i+1, got[i], want[i])
		}
	}
}
