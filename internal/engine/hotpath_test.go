package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

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
// small to give every reducer a byte (zero-byte nodes), node losses with and
// without re-registration, and back-to-back calls on one registry (the
// accumulator must come back zeroed).
func TestReducePlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		r := newShuffleRegistry()
		nodes := 1 + rng.Intn(9)
		from := []int{0, 1, 2}[:1+rng.Intn(3)]
		for _, st := range from {
			for task := 0; task < rng.Intn(12); task++ {
				r.addMapOutput(setKey{job: 1, stage: st}, task, rng.Intn(nodes), int64(1+rng.Intn(40)))
			}
		}
		// A sibling job whose outputs must not leak into the plan.
		r.addMapOutput(setKey{job: 2, stage: 0}, 0, 0, 1000)
		if rng.Intn(2) == 0 {
			r.removeNode(rng.Intn(nodes))
			if rng.Intn(2) == 0 {
				r.addMapOutput(setKey{job: 1, stage: 0}, 0, rng.Intn(nodes), 25)
			}
		}
		numTasks := 1 + rng.Intn(16)
		for idx := 0; idx < numTasks; idx++ {
			want := referenceReducePlan(r, 1, from, numTasks, idx)
			got := r.reducePlan(1, from, numTasks, idx)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d task %d/%d: plan = %v, want %v", trial, idx, numTasks, got, want)
			}
		}
	}
}
