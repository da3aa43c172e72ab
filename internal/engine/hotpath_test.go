package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"sae/internal/core"
	"sae/internal/engine/job"
)

// referenceActiveKeys is the map-and-sort.Slice activeKeys this package
// shipped before the allocation-free one: jobs ordered by the policy, stages
// ascending within each job.
func referenceActiveKeys(s *taskScheduler) []setKey {
	stagesOf := make(map[int][]int)
	for key := range s.sets {
		stagesOf[key.job] = append(stagesOf[key.job], key.stage)
	}
	jobs := make([]int, 0, len(stagesOf))
	for id := range stagesOf {
		jobs = append(jobs, id)
	}
	sort.Slice(jobs, func(i, j int) bool {
		return s.policy.Before(s.eng.snapshotJob(jobs[i]), s.eng.snapshotJob(jobs[j]))
	})
	keys := make([]setKey, 0, len(s.sets))
	for _, id := range jobs {
		stages := stagesOf[id]
		sort.Ints(stages)
		for _, st := range stages {
			keys = append(keys, setKey{job: id, stage: st})
		}
	}
	return keys
}

// TestActiveKeysMatchesReference checks the order over random multi-job,
// multi-stage states under every inter-job policy — with the ties (equal
// submission instants, running counts and priorities) the policies break by
// job ID — and that a steady-state call allocates nothing.
func TestActiveKeysMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, policy := range []InterJobPolicy{FIFO{}, Fair{}, Priority{}} {
		for trial := 0; trial < 200; trial++ {
			e := &Engine{}
			s := newTaskScheduler(e, policy)
			for id := 0; id < 1+rng.Intn(6); id++ {
				e.jobs = append(e.jobs, &jobState{
					id:       id,
					spec:     &job.JobSpec{Priority: rng.Intn(3)},
					submitAt: time.Duration(rng.Intn(3)) * time.Second,
					running:  rng.Intn(3),
				})
				for stage := 0; stage < 5; stage++ {
					if rng.Intn(2) == 0 {
						s.sets[setKey{job: id, stage: stage}] = &taskSet{}
					}
				}
			}
			want := referenceActiveKeys(s)
			got := s.activeKeys()
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: activeKeys = %v, want %v", policy.Name(), trial, got, want)
			}
			if allocs := testing.AllocsPerRun(10, func() { s.activeKeys() }); allocs != 0 {
				t.Fatalf("%s trial %d: activeKeys allocates %v objects per call, want 0", policy.Name(), trial, allocs)
			}
		}
	}
}

// referenceReducePlan is the map-based reducePlan this package shipped before
// the dense per-node accumulator.
func referenceReducePlan(r *shuffleRegistry, job int, from []int, numTasks, idx int) []segment {
	byNode := make(map[int]int64)
	for _, st := range from {
		for _, out := range r.outputs[setKey{job, st}] {
			if out.lost {
				continue
			}
			base := out.bytes / int64(numTasks)
			if int64(idx) < out.bytes%int64(numTasks) {
				base++
			}
			byNode[out.node] += base
		}
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	plan := make([]segment, 0, len(nodes))
	for _, n := range nodes {
		if byNode[n] > 0 {
			plan = append(plan, segment{node: n, bytes: byNode[n], gen: r.nodeGen[n]})
		}
	}
	return plan
}

// TestReducePlanMatchesReference covers several upstream stages, outputs too
// small to give every reducer a byte (zero-byte nodes) and back-to-back calls
// on one registry, and re-plans after every kind of mutation — late
// registrations, a node loss, recovery on other nodes, a sibling job dropped,
// the job itself dropped — each time for two consumer widths over the same
// upstream stages: a stale aggregate, or one shared across widths (the
// remainders are bytes%numTasks), gives a wrong share. The running totals
// behind registeredBytes and missing are held to a scan of the outputs.
func TestReducePlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		r := newShuffleRegistry()
		nodes := 1 + rng.Intn(9)
		from := []int{0, 1, 2}[:1+rng.Intn(3)]
		widths := []int{1 + rng.Intn(16), 1 + rng.Intn(16)}
		buf := []segment{} // every plan is built in the previous one's buffer
		check := func(step string) {
			t.Helper()
			for _, numTasks := range widths {
				for idx := 0; idx < numTasks; idx++ {
					want := referenceReducePlan(r, 1, from, numTasks, idx)
					got := r.reducePlan(1, from, numTasks, idx, buf)
					buf = got
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d, %s, task %d/%d: plan = %v, want %v", trial, step, idx, numTasks, got, want)
					}
				}
			}
			var valid int64
			lost := false
			for key, outs := range r.outputs {
				for _, out := range outs {
					if !out.lost {
						valid += out.bytes
					} else if key.job == 1 && key.stage < len(from) {
						lost = true
					}
				}
			}
			if got := r.registeredBytes(); got != valid {
				t.Fatalf("trial %d, %s: registeredBytes = %d, the outputs hold %d", trial, step, got, valid)
			}
			if got := r.missing(1, from); got != lost {
				t.Fatalf("trial %d, %s: missing = %v, want %v", trial, step, got, lost)
			}
		}
		register := func(first int) {
			for _, st := range from {
				for task := first; task < first+rng.Intn(12); task++ {
					r.addMapOutput(setKey{job: 1, stage: st}, task, rng.Intn(nodes), int64(1+rng.Intn(40)))
				}
			}
		}
		register(0)
		// A sibling job whose outputs must not leak into the plan.
		r.addMapOutput(setKey{job: 2, stage: 0}, 0, 0, 1000)
		check("registered")
		register(12)
		check("late registrations")
		r.removeNode(rng.Intn(nodes))
		check("node lost")
		for _, st := range from {
			key := setKey{job: 1, stage: st}
			for _, task := range r.lostTasks(key) {
				if rng.Intn(3) > 0 {
					r.addMapOutput(key, task, rng.Intn(nodes), int64(1+rng.Intn(40)))
				}
			}
		}
		check("recovered")
		r.dropJob(2)
		check("sibling dropped")
		r.dropJob(1)
		check("dropped")
	}
}

// TestReducePlanAllocatesNothingWarm pins the steady-state cost of a launch's
// fetch plan: once a stage's aggregate is built, every further reducer reads
// it, and the segments go into the buffer the caller brings — the one an
// earlier task of the stage returned — so the call allocates nothing.
func TestReducePlanAllocatesNothingWarm(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := newShuffleRegistry()
	for task := 0; task < 64; task++ {
		r.addMapOutput(setKey{job: 0, stage: 0}, task, task%4, int64(1000+task))
		r.addMapOutput(setKey{job: 0, stage: 1}, task, task%3, int64(500+task))
	}
	from := []int{0, 1}
	buf := r.reducePlan(0, from, 48, 0, nil)
	idx := 0
	if allocs := testing.AllocsPerRun(100, func() {
		idx = (idx + 1) % 48
		if buf = r.reducePlan(0, from, 48, idx, buf); len(buf) != 4 {
			t.Fatal("plan does not cover the four source nodes")
		}
	}); allocs != 0 {
		t.Errorf("reducePlan allocates %v objects per call into a warm buffer, want 0", allocs)
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own: allocation pins skip under it.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestStacklessTaskAllocs pins what one analytic task costs in heap objects
// once its executor is warm: nothing. The task's state — context, process,
// analytic plan — is recycled through the executor's free list and its
// resumes are Step calls; the launch and completion messages and the fetch
// plan come from the engine's free lists; and both mailboxes deliver through
// their flight queues, not a closure per message.
// Measured between two instants in the middle of a long shuffle stage.
func TestStacklessTaskAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const tasks = 2048
	spec := &job.JobSpec{Name: "allocs", Stages: []*job.StageSpec{
		{ID: 0, Name: "map", NumTasks: 8, CPUSecondsPerTask: 0.01, ShuffleWriteBytes: tasks << 20},
		{ID: 1, Name: "reduce", NumTasks: tasks, ShuffleFrom: []int{0}, CPUSecondsPerTask: 0.01,
			OutputFile: "out", OutputBytes: tasks << 18},
	}}
	run := func(sample func(e *Engine)) *JobReport {
		opts := testOptions(2, core.Default{})
		opts.OnSetup = sample
		rep, err := Run(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	red := run(nil).Stages[1]
	var mallocs, done [2]uint64
	run(func(e *Engine) {
		for i, frac := range []time.Duration{1, 3} {
			e.k.At(red.Start+(red.End-red.Start)*frac/4, func() {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mallocs[i] = ms.Mallocs
				for _, ex := range e.executors {
					done[i] += uint64(ex.totalTasks)
				}
			})
		}
	})
	n := done[1] - done[0]
	if n < tasks/4 {
		t.Fatalf("only %d tasks completed between the samples", n)
	}
	perTask := float64(mallocs[1]-mallocs[0]) / float64(n)
	t.Logf("%.2f objects per task over %d tasks", perTask, n)
	// The fraction is the heartbeat ticks' (one message per beat) and the
	// output file's block list growing.
	if perTask > 0.25 {
		t.Errorf("an analytic task allocates %.2f objects in steady state, want 0 (every message, plan and delivery is recycled)", perTask)
	}
}
