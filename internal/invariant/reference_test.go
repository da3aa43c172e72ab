package invariant

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sae/internal/engine"
	"sae/internal/engine/job"
)

// mapAuditor is the auditor's shuffle and byte-conservation mirror as this
// package kept it before the ledgers: one map entry per (job, stage, task),
// job mirrors in a map by ID, every coverage signal hashed into a set on
// every hook. Only the hooks the ledgers changed are kept, with the slot
// rules they share a coverage set with.
type mapAuditor struct {
	run        int
	dropped    int
	violations []Violation
	coverage   map[string]struct{}

	inflight []int
	jobs     map[int]*refJob
	shuffle  map[refKey]refOutput
}

type refJob struct {
	diskRead, diskWrite, net     int64
	fetchRetries, checksumFailed int
	tasks                        int
}

type refKey struct{ job, stage, task int }

type refOutput struct {
	node int
	lost bool
}

func newMapAuditor() *mapAuditor { return &mapAuditor{coverage: map[string]struct{}{}} }

func (a *mapAuditor) cover(sig string) { a.coverage[sig] = struct{}{} }

func (a *mapAuditor) Coverage() []string {
	out := make([]string, 0, len(a.coverage))
	for s := range a.coverage {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// violate records like Auditor.violate outside the event stream: no hook in
// these histories carries an event, so every offset is -1 and every instant 0.
func (a *mapAuditor) violate(rule string, exec, jobID int, format string, args ...any) {
	if len(a.violations) >= maxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, Violation{Rule: rule, Run: a.run, Offset: -1, Exec: exec, Job: jobID,
		Detail: fmt.Sprintf(format, args...)})
}

func (a *mapAuditor) BeginRun(active []bool) {
	a.run++
	a.inflight = make([]int, len(active))
	a.jobs = map[int]*refJob{}
	a.shuffle = map[refKey]refOutput{}
}

func (a *mapAuditor) SlotLaunched(exec, jobID int) {
	a.inflight[exec]++
	a.cover("slot:launch")
}

func (a *mapAuditor) SlotReleased(exec, jobID int) {
	if a.inflight[exec] == 0 {
		a.violate("slot-conservation", exec, jobID, "slot released with no matching launch")
		return
	}
	a.inflight[exec]--
	a.cover("slot:release")
}

func (a *mapAuditor) ShuffleRegistered(jobID, stage, task, node int, outcome engine.ShuffleOutcome) {
	key := refKey{job: jobID, stage: stage, task: task}
	m, registered := a.shuffle[key]
	switch outcome {
	case engine.ShuffleAccepted:
		if registered && !m.lost {
			a.violate("shuffle-exactly-once", -1, jobID,
				"stage %d task %d: second registration accepted over a live output", stage, task)
		}
		if registered && m.lost {
			a.violate("shuffle-exactly-once", -1, jobID,
				"stage %d task %d: lost output replaced without recovery accounting", stage, task)
		}
		a.shuffle[key] = refOutput{node: node}
		a.cover("shuffle:accepted")
	case engine.ShuffleDuplicate:
		if !registered {
			a.violate("shuffle-exactly-once", -1, jobID,
				"stage %d task %d: duplicate verdict for an output never registered", stage, task)
		} else if m.lost {
			a.violate("shuffle-exactly-once", -1, jobID,
				"stage %d task %d: duplicate verdict while the registered output is lost", stage, task)
		}
		a.cover("shuffle:duplicate")
	case engine.ShuffleRecovered:
		if !registered || !m.lost {
			a.violate("shuffle-exactly-once", -1, jobID,
				"stage %d task %d: recovery verdict without a lost registration", stage, task)
		}
		a.shuffle[key] = refOutput{node: node}
		a.cover("shuffle:recovered")
	case engine.ShuffleEmpty:
	}
}

func (a *mapAuditor) ShuffleNodeLost(node int) {
	for key, m := range a.shuffle {
		if m.node == node && !m.lost {
			m.lost = true
			a.shuffle[key] = m
		}
	}
	a.cover("shuffle:node-lost")
}

func (a *mapAuditor) TaskAccepted(jobID int, m job.TaskMetrics) {
	jm := a.jobs[jobID]
	if jm == nil {
		jm = &refJob{}
		a.jobs[jobID] = jm
	}
	jm.diskRead += m.DiskReadBytes
	jm.diskWrite += m.DiskWriteBytes
	jm.net += m.NetBytes
	jm.fetchRetries += m.FetchRetries
	jm.checksumFailed += m.ChecksumFailovers
	jm.tasks++
}

func (a *mapAuditor) JobFinished(rep *engine.JobReport) {
	jm := a.jobs[rep.ID]
	if jm == nil {
		jm = &refJob{}
	}
	check := func(what string, got, want int64) {
		if got != want {
			a.violate("byte-conservation", -1, rep.ID,
				"report %s %d does not equal the %d task-attributed total %d", what, got, jm.tasks, want)
		}
	}
	check("disk-read bytes", rep.DiskReadBytes, jm.diskRead)
	check("disk-write bytes", rep.DiskWriteBytes, jm.diskWrite)
	check("network bytes", rep.NetBytes, jm.net)
	check("fetch retries", int64(rep.FetchRetries), int64(jm.fetchRetries))
	check("checksum failovers", int64(rep.ChecksumFailovers), int64(jm.checksumFailed))
	delete(a.jobs, rep.ID)
	for key := range a.shuffle {
		if key.job == rep.ID {
			delete(a.shuffle, key)
		}
	}
}

// TestLedgerMatchesMapReference drives seeded hook histories through the
// auditor and the map-based mirror it replaced and requires the same
// violations, in the same order with the same details, the same dropped count
// and the same coverage. A history runs the auditor through one to three
// BeginRuns over up to four jobs of four stages and sixteen tasks, registering
// tasks in any order; most verdicts are the lawful one for the task's state
// (accepted, then duplicates, recovered after a node loss), the rest drawn at
// random, empty ones included; jobs finish with the true byte totals or with
// one off, and may register again after finishing.
func TestLedgerMatchesMapReference(t *testing.T) {
	const trials = 600
	outcomes := []engine.ShuffleOutcome{engine.ShuffleAccepted, engine.ShuffleDuplicate, engine.ShuffleRecovered, engine.ShuffleEmpty}
	seen := map[string]bool{}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		got, want := New(), newMapAuditor()
		var active []bool
		begin := func() {
			active = make([]bool, 1+rng.Intn(4))
			for i := range active {
				active[i] = true
			}
			got.BeginRun(active)
			want.BeginRun(active)
		}
		begin()
		runs, steps := 1+rng.Intn(3), 20+rng.Intn(300)
		for step := 0; step < runs*steps; step++ {
			if step > 0 && step%steps == 0 {
				begin()
			}
			jobID, stage, task := rng.Intn(4), rng.Intn(4), rng.Intn(16)
			node := rng.Intn(len(active))
			var op string
			switch r := rng.Intn(100); {
			case r < 55:
				outcome := outcomes[rng.Intn(len(outcomes))]
				if rng.Intn(4) > 0 {
					m, registered := want.shuffle[refKey{jobID, stage, task}]
					switch {
					case !registered:
						outcome = engine.ShuffleAccepted
					case m.lost:
						outcome = engine.ShuffleRecovered
					default:
						outcome = engine.ShuffleDuplicate
					}
				}
				op = "register:" + outcome.String()
				got.ShuffleRegistered(jobID, stage, task, node, outcome)
				want.ShuffleRegistered(jobID, stage, task, node, outcome)
			case r < 62:
				op = "node-lost"
				got.ShuffleNodeLost(node)
				want.ShuffleNodeLost(node)
			case r < 75:
				op = "launch"
				got.SlotLaunched(node, jobID)
				want.SlotLaunched(node, jobID)
			case r < 85:
				op = "release"
				got.SlotReleased(node, jobID)
				want.SlotReleased(node, jobID)
			case r < 95:
				op = "accept"
				m := job.TaskMetrics{DiskReadBytes: rng.Int63n(100), NetBytes: rng.Int63n(100), FetchRetries: rng.Intn(2)}
				got.TaskAccepted(jobID, m)
				want.TaskAccepted(jobID, m)
			default:
				op = "finish"
				rep := &engine.JobReport{ID: jobID}
				if jm := want.jobs[jobID]; jm != nil {
					rep.DiskReadBytes, rep.NetBytes, rep.FetchRetries = jm.diskRead, jm.net, jm.fetchRetries
				}
				if rng.Intn(3) == 0 {
					rep.NetBytes++
				}
				got.JobFinished(rep)
				want.JobFinished(rep)
			}
			seen[op] = true
			if len(got.violations) != len(want.violations) || got.dropped != want.dropped {
				t.Fatalf("trial %d step %d (%s): %d violations, %d dropped; the map mirror has %d, %d\n got %v\nwant %v",
					trial, step, op, len(got.violations), got.dropped, len(want.violations), want.dropped,
					got.Violations(), want.violations)
			}
		}
		if !reflect.DeepEqual(got.Violations(), want.violations) {
			t.Fatalf("trial %d: violations differ\n got %v\nwant %v", trial, got.Violations(), want.violations)
		}
		if g, w := got.Coverage(), want.Coverage(); !reflect.DeepEqual(g, w) {
			t.Fatalf("trial %d: coverage %v, the map mirror's %v", trial, g, w)
		}
	}
	for _, op := range []string{"register:accepted", "register:duplicate", "register:recovered", "register:empty",
		"node-lost", "launch", "release", "accept", "finish"} {
		if !seen[op] {
			t.Errorf("no history made a %s call", op)
		}
	}
}
