package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"sae/internal/cluster"
	"sae/internal/core"
	"sae/internal/dfs"
	"sae/internal/engine/job"
	"sae/internal/sim"
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
						s.addSet(&taskSet{key: setKey{job: id, stage: stage}})
					}
				}
			}
			if len(s.keys) > 0 {
				s.dropSet(s.keys[rng.Intn(len(s.keys))])
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
		ks := r.state[setKey{job, st}]
		if ks == nil {
			continue
		}
		for _, out := range ks.outs {
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
// behind registeredBytes and missing are held to a scan of the outputs. Every
// upstream stage is `maps` tasks wide — what the registry sizes a key's output
// list and slot index to — and its last task registers on the node that is
// lost and registers again as recovery: the index's last entry, both ways.
func TestReducePlanMatchesReference(t *testing.T) {
	const maps = 24
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		r := newShuffleRegistry(new(runSpares))
		nodes := 1 + rng.Intn(9)
		doomed := rng.Intn(nodes)
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
			for key, ks := range r.state {
				for _, out := range ks.outs {
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
					r.addMapOutput(setKey{job: 1, stage: st}, maps, task, rng.Intn(nodes), int64(1+rng.Intn(40)))
				}
			}
		}
		register(0)
		// A sibling job whose outputs must not leak into the plan.
		r.addMapOutput(setKey{job: 2, stage: 0}, 1, 0, 0, 1000)
		check("registered")
		register(12)
		for _, st := range from {
			if got := r.addMapOutput(setKey{job: 1, stage: st}, maps, maps-1, doomed, 7); got != ShuffleAccepted {
				t.Fatalf("trial %d: the stage's last task registers as %v", trial, got)
			}
		}
		check("late registrations")
		r.removeNode(doomed)
		check("node lost")
		for _, st := range from {
			key := setKey{job: 1, stage: st}
			for _, task := range r.lostTasks(key) {
				if task == maps-1 || rng.Intn(3) > 0 {
					if got := r.addMapOutput(key, maps, task, rng.Intn(nodes), int64(1+rng.Intn(40))); got != ShuffleRecovered {
						t.Fatalf("trial %d: lost task %d registers again as %v", trial, task, got)
					}
				}
			}
			if got := r.addMapOutput(key, maps, maps-1, 0, 5); got != ShuffleDuplicate {
				t.Fatalf("trial %d: the recovered last task registers a third time as %v", trial, got)
			}
		}
		check("recovered")
		r.dropJob(2)
		check("sibling dropped")
		r.dropJob(1)
		check("dropped")
	}
}

// referencePick is the pending-queue scan this package shipped before the
// queue kept tickets and a locality index: the position in pending of the first
// task local to node and not excluded from executor i, else of the first not
// excluded from i, else -1.
func referencePick(ts *taskSet, pending []int, i, node int) int {
	// First pass: local tasks without an exclusion against i.
	for j, t := range pending {
		if int(ts.tasks[t].noExec) == i {
			continue
		}
		if ts.splits != nil {
			blocks := ts.splits[t]
			if len(blocks) > 0 && !slices.Contains(blocks[0].Replicas, node) {
				continue
			}
		}
		return j
	}
	// Second pass: any task not excluded from i.
	for j, t := range pending {
		if int(ts.tasks[t].noExec) != i {
			return j
		}
	}
	return -1
}

// referencePickExcluded is that scheduler's exclusion-clearing pass: the
// position of the first task excluded from i.
func referencePickExcluded(ts *taskSet, pending []int, i int) int {
	for j, t := range pending {
		if int(ts.tasks[t].noExec) == i {
			return j
		}
	}
	return -1
}

// referenceRemove is its launch: close the gap at pick from the front.
func referenceRemove(pending []int, pick int) []int {
	copy(pending[1:pick+1], pending[:pick])
	return pending[1:]
}

// TestPickMatchesScanReference drives a task set's queue and the scan it
// replaced through random histories — launches from any executor, retries and
// backup copies that exclude an executor (of tasks that may already be waiting
// in the queue), recovery sets growing by addTask, exclusions cleared — over
// clusters of 4 to 64 nodes and inputs at replication 1, 3 and n, with fewer
// blocks than tasks (empty splits) or several per task, no input at all, and
// one set mixing all of them. After every step every executor must be offered
// the same queue entry by both, on the normal passes and the exclusion-clearing
// one, and the live count must be the scan's queue length.
func TestPickMatchesScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 240; trial++ {
		nodes := 4 + rng.Intn(61)
		numTasks := 1 + rng.Intn(96)
		fs := dfs.New(cluster.New(sim.NewKernel(), cluster.DAS5(nodes)), 100)
		file := func(name string, blocks, replication int) *dfs.File {
			f, err := fs.Create(name, int64(blocks)*100, replication)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		blocks := []int{numTasks, 1 + rng.Intn(numTasks), numTasks * (1 + rng.Intn(3))}[rng.Intn(3)]
		var splits [][]dfs.Block
		mode := trial % 5
		switch mode {
		case 0: // no input file
		case 1, 2, 3:
			splits = dfs.Splits(file("in", blocks, []int{1, 3, nodes}[mode-1]), numTasks)
		case 4:
			few, all := file("few", numTasks, 1+rng.Intn(3)), file("all", numTasks, 0)
			splits = make([][]dfs.Block, numTasks)
			for task := range splits {
				if f := []*dfs.File{few, all, nil}[rng.Intn(3)]; f != nil {
					splits[task] = f.Blocks[task : task+1]
				}
			}
		}
		recovery := rng.Intn(3) == 0
		var only []int
		if recovery {
			only = rng.Perm(numTasks)[:1+rng.Intn(numTasks)]
		}
		stage := &job.StageSpec{NumTasks: numTasks}
		ts := newTaskSet(setKey{}, nil, stage, recovery, only, splits, nodes, new(runSpares))
		// Only a partially replicated first block calls for the index.
		if built := ts.queue.local != nil; mode != 4 && built != (mode == 1 || mode == 2) {
			t.Fatalf("trial %d (mode %d): locality index built = %v", trial, mode, built)
		}

		// The scan's queue: tasks in assignment order, and beside each the
		// ticket the queue under test gives that entry (tickets count enqueues).
		var pending, tickets []int
		enqueued := 0
		queue := func(task int) {
			pending, tickets = append(pending, task), append(tickets, enqueued)
			enqueued++
		}
		for task := 0; task < numTasks && !recovery; task++ {
			queue(task)
		}
		for _, task := range only {
			queue(task)
		}
		type attempt struct{ task, exec int }
		var running []attempt
		launch := func(step string, ticket, pos, exec int) {
			t.Helper()
			if (ticket < 0) != (pos < 0) || ticket >= 0 && tickets[pos] != ticket {
				t.Fatalf("trial %d (mode %d, %d nodes), %s by executor %d: picked ticket %d, the scan picks position %d of tickets %v",
					trial, mode, nodes, step, exec, ticket, pos, tickets)
			}
			if ticket < 0 {
				return
			}
			if task := ts.take(ticket); task != pending[pos] {
				t.Fatalf("trial %d, %s: ticket %d is task %d, the scan launches %d", trial, step, ticket, task, pending[pos])
			}
			running = append(running, attempt{pending[pos], exec})
			pending, tickets = referenceRemove(pending, pos), referenceRemove(tickets, pos)
		}
		check := func(step string) {
			t.Helper()
			if ts.queue.live != len(pending) || len(ts.queue.tickets) != enqueued {
				t.Fatalf("trial %d, %s: %d of %d tickets live, the scan's queue holds %d of %d", trial, step,
					ts.queue.live, len(ts.queue.tickets), len(pending), enqueued)
			}
			for exec := 0; exec < nodes; exec++ {
				for pass, got := range []int{ts.pick(exec, exec), ts.first(exec, true)} {
					pos := referencePick(ts, pending, exec, exec)
					if pass == 1 {
						pos = referencePickExcluded(ts, pending, exec)
					}
					if (got < 0) != (pos < 0) || got >= 0 && tickets[pos] != got {
						t.Fatalf("trial %d (mode %d, %d nodes), after %s: pass %d offers executor %d ticket %d, the scan position %d of tickets %v",
							trial, mode, nodes, step, pass, exec, got, pos, tickets)
					}
				}
			}
		}
		check("construction")
		for step := 0; step < 3*numTasks; step++ {
			exec := rng.Intn(nodes)
			switch op := rng.Intn(10); {
			case op < 5:
				launch("launch", ts.pick(exec, exec), referencePick(ts, pending, exec, exec), exec)
				check("launch")
			case op < 7 && len(running) > 0:
				// A retry or a backup copy: the task re-enters the queue behind
				// everything, excluded from the executor that ran it — whether or
				// not an earlier copy of it is still waiting there.
				a := running[rng.Intn(len(running))]
				ts.tasks[a.task].noExec = int32(a.exec)
				ts.enqueue(a.task)
				queue(a.task)
				check("re-enqueue")
			case op < 8 && recovery:
				task := rng.Intn(numTasks)
				if !ts.contains(task) {
					queue(task)
				}
				ts.addTask(task)
				check("addTask")
			case op < 9:
				ticket, pos := ts.first(exec, true), referencePickExcluded(ts, pending, exec)
				if ticket >= 0 {
					ts.tasks[ts.queue.tickets[ticket]].noExec = -1
				}
				launch("cleared exclusion", ticket, pos, exec)
				check("cleared exclusion")
			default:
				// A requeue that excludes nobody (a fetch failure, a lost executor).
				if len(running) > 0 {
					a := running[rng.Intn(len(running))]
					ts.enqueue(a.task)
					queue(a.task)
					check("requeue")
				}
			}
		}
		// Drain: every entry leaves in the scan's order.
		for len(pending) > 0 {
			exec := rng.Intn(nodes)
			ticket, pos := ts.pick(exec, exec), referencePick(ts, pending, exec, exec)
			if ticket < 0 {
				ticket, pos = ts.first(exec, true), referencePickExcluded(ts, pending, exec)
				ts.tasks[pending[pos]].noExec = -1
			}
			launch("drain", ticket, pos, exec)
		}
		check("drained")
	}
}

// TestTaskStateIsSmall pins the width of the driver's per-task record: five
// words, none of them a pointer, so a stage's table is one allocation the
// collector does not scan.
func TestTaskStateIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(taskState{}); size > 40 {
		t.Errorf("taskState is %d bytes, want at most 40", size)
	}
	typ := reflect.TypeOf(taskState{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("taskState.%s is a %s: the table must hold no pointer", f.Name, f.Type.Kind())
		}
	}
}

// TestCopiesMatchSliceReference drives a task set's running-attempt records —
// two inline places per task, the set's extra list past them — against the
// append-grown []int per task they replaced, over random histories on the
// queue driver of TestPickMatchesScanReference. Even trials follow the
// scheduler's rules: a retry is queued when the failed attempt has been
// dropped, a task gets one backup copy and only while an attempt of it runs,
// and a lost executor's or a lost output's task is requeued only if nothing of
// it runs or waits. Those never put a third attempt beside two, which is why
// two places are inline. Odd trials also queue tasks out of turn, as a zombie of
// an earlier set does when it reports a failure, and go past two. After every
// step inFlight, dropCopy's verdict and the attempts held must be the
// reference's.
func TestCopiesMatchSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spilled := false
	for trial := 0; trial < 300; trial++ {
		lawful := trial%2 == 0
		nodes, numTasks := 2+rng.Intn(7), 1+rng.Intn(24)
		ts := newTaskSet(setKey{}, nil, &job.StageSpec{NumTasks: numTasks}, false, nil, nil, nodes, new(runSpares))
		ref := make([][]int, numTasks)
		type running struct{ task, exec int }
		attempts := func() (out []running) {
			for task, execs := range ref {
				for _, exec := range execs {
					out = append(out, running{task, exec})
				}
			}
			return out
		}
		drop := func(step string, task, exec int) bool {
			t.Helper()
			i := slices.Index(ref[task], exec)
			if got := ts.dropCopy(task, exec); got != (i >= 0) {
				t.Fatalf("trial %d, %s: dropCopy(%d, %d) = %v with the reference holding %v", trial, step, task, exec, got, ref[task])
			}
			if i >= 0 {
				ref[task] = slices.Delete(ref[task], i, i+1)
			}
			return i >= 0
		}
		requeue := func(task int) {
			if !ts.tasks[task].done && !ts.inFlight(task) && !ts.isPending(task) {
				ts.enqueue(task)
			}
		}
		for step := 0; step < 12*numTasks; step++ {
			exec := rng.Intn(nodes)
			name := "launch"
			switch op := rng.Intn(9); {
			case op < 3:
				ticket := ts.pick(exec, exec)
				if ticket < 0 {
					if ticket = ts.first(exec, true); ticket < 0 {
						continue
					}
					ts.tasks[ts.queue.tickets[ticket]].noExec = -1
				}
				task := ts.take(ticket)
				ts.addCopy(task, exec)
				ts.tasks[task].lastExec = int32(exec)
				ref[task] = append(ref[task], exec)
			case op < 5:
				name = "attempt ends"
				as := attempts()
				if len(as) == 0 {
					continue
				}
				a := as[rng.Intn(len(as))]
				drop(name, a.task, a.exec)
				if st := &ts.tasks[a.task]; rng.Intn(2) == 0 {
					st.done = true
				} else if !st.done {
					st.noExec = int32(a.exec)
					ts.enqueue(a.task)
				}
			case op == 5:
				name = "speculate"
				for task := range ts.tasks {
					if st := &ts.tasks[task]; !st.done && !st.speculated && ts.inFlight(task) && rng.Intn(3) == 0 {
						st.speculated, st.noExec = true, st.lastExec
						ts.enqueue(task)
					}
				}
			case op == 6:
				name = "executor lost"
				for task := range ts.tasks {
					if drop(name, task, exec) {
						requeue(task)
					}
				}
			case op == 7:
				name = "output lost"
				if task := rng.Intn(numTasks); ts.tasks[task].done {
					ts.tasks[task].done = false
					requeue(task)
				}
			case lawful:
				name = "no such attempt"
				drop(name, rng.Intn(numTasks), nodes)
			default:
				name = "queued out of turn"
				ts.enqueue(rng.Intn(numTasks))
			}
			for task, want := range ref {
				st := &ts.tasks[task]
				var got []int
				for _, exec := range st.copies {
					if exec >= 0 {
						got = append(got, int(exec))
					}
				}
				for _, a := range ts.extra {
					if int(a.task) == task {
						got = append(got, int(a.exec))
					}
				}
				slices.Sort(got)
				if want = slices.Sorted(slices.Values(want)); !slices.Equal(got, want) || ts.inFlight(task) != (len(want) > 0) {
					t.Fatalf("trial %d, after %s: task %d runs on %v (in flight: %v), the reference has it on %v", trial, name, task, got, ts.inFlight(task), want)
				}
				if lawful && len(want) > 2 {
					t.Fatalf("trial %d, after %s: task %d has %d attempts running under the scheduler's rules", trial, name, task, len(want))
				}
			}
			if len(ts.extra) > 0 {
				if lawful {
					t.Fatalf("trial %d, after %s: the scheduler's rules spilled %v", trial, name, ts.extra)
				}
				spilled = true
			}
		}
	}
	if !spilled {
		t.Fatal("no history went past two attempts of a task: the extra list was never used")
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
	r := newShuffleRegistry(new(runSpares))
	for task := 0; task < 64; task++ {
		r.addMapOutput(setKey{job: 0, stage: 0}, 64, task, task%4, int64(1000+task))
		r.addMapOutput(setKey{job: 0, stage: 1}, 64, task, task%3, int64(500+task))
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

// TestSpeculateAllocatesNothing pins the cost of the straggler check that
// runs on every completion once a speculating stage is mostly done: it sorts
// the set's durations where they lie, where it used to sort a fresh copy of
// them each time. Each call here first adds a completion, as handleTaskDone
// does; the tasks still running started at 0 and the clock reads 0, so none
// is a straggler.
func TestSpeculateAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	opts := testOptions(2, core.Default{})
	opts.Speculation = true
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 256
	stage := &job.StageSpec{ID: 0, Name: "map", NumTasks: tasks}
	ts := newTaskSet(setKey{}, &jobState{}, stage, false, nil, nil, 2, new(runSpares))
	rng := rand.New(rand.NewSource(1))
	for task := 0; task < 200; task++ {
		ts.tasks[task].done = true
		ts.done++
		ts.durations = append(ts.durations, time.Duration(rng.Intn(1000))*time.Millisecond)
	}
	for task := 200; task < tasks; task++ {
		ts.addCopy(task, task%2)
	}
	if n := testing.AllocsPerRun(50, func() {
		ts.durations = append(ts.durations, time.Duration(rng.Intn(1000))*time.Millisecond)
		if e.sched.speculate(ts) != 0 {
			t.Fatal("a task that has not run past the threshold was speculated")
		}
	}); n != 0 {
		t.Errorf("speculate allocates %v objects per call, want 0", n)
	}
	if !slices.IsSorted(ts.durations) || cap(ts.durations) != tasks {
		t.Errorf("durations: sorted %v, capacity %d; want sorted in the array made for %d tasks",
			slices.IsSorted(ts.durations), cap(ts.durations), tasks)
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
	// Heartbeats come from a free list too and the output file's block list
	// is reserved when the stage starts: the allowance is for a beat that
	// finds its list empty.
	if perTask > 0.25 {
		t.Errorf("an analytic task allocates %.2f objects in steady state, want 0 (every message, plan and delivery is recycled)", perTask)
	}
}

// BenchmarkAssignPartialReplication times the driver placing wide_cluster's r3
// stage — 256 nodes, 24 one-block tasks per node, three replicas per block —
// with no simulation under it: the first wave (8 slots per executor, 2 048
// launches from one assignAll), then the other 4 096 as executors report one
// completion each in turn, the last of them remote picks from the queue's head.
func BenchmarkAssignPartialReplication(b *testing.B) {
	const nodes, perNode = 256, 24
	opts := testOptions(nodes, core.Static{IOThreads: 8})
	opts.Replication = 3
	opts.Inputs = []Input{{Name: "in", Size: nodes * perNode * opts.BlockSize}}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := NewEngine(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Submit(readJob("scan", 0)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e.startJob(e.jobs[0])
		for exec := 0; e.sched.pendingTotal(0) > 0; exec = (exec + 1) % nodes {
			e.em.completed(exec, 0)
			e.sched.assign(exec)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes*perNode), "ns/launch")
}
