package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"sae/internal/cluster"
	"sae/internal/dfs"
	"sae/internal/engine/job"
	"sae/internal/psres"
)

// setKey identifies one task set cluster-wide: stage IDs are only unique
// within a job, so everything shared between jobs (task sets, shuffle
// registry, executor controllers) is keyed by (job, stage).
type setKey struct {
	job   int
	stage int
}

// taskSet tracks one set of runnable tasks at the driver: a stage's
// primary task wave, or a lineage-recovery subset regenerating lost map
// outputs of an earlier stage.
type taskSet struct {
	key   setKey
	js    *jobState
	stage *job.StageSpec
	// recovery marks a resubmitted parent map stage; recovery sets skip
	// speculation and stage statistics, and run under whatever controller
	// settings the executors' active stages chose.
	recovery bool
	// tasks is indexed by task and spans the whole stage, recovery sets
	// included: a zombie attempt of any task of the stage may still report.
	tasks []taskState

	queue pendingQueue
	// blocks is the stage's input layout as it was when the set was made (nil
	// without an input file): task i reads dfs.Split(blocks, NumTasks, i).
	blocks []dfs.Block
	total  int
	done   int

	// extra lists the running attempts that found both places of their
	// taskState.copies taken; nil in every run so far.
	extra []attempt

	// durations holds the winning attempts' durations of a primary set, in no
	// particular order: speculate sorts it in place. It is
	// made at NumTasks, one per task; a task un-completed by a lost node adds a
	// second on finishing again, and append grows it then.
	durations []time.Duration

	// rep is a primary set's entry in its job's JobReport.Stages, filled as
	// the stage runs; nil for a recovery set, which reports nothing.
	rep *StageReport

	// Stage-window snapshots (primary sets only; see activateStage).
	usage0   []cluster.Usage
	disk0    []psres.Stats
	read0    int64
	write0   int64
	net0     int64
	requeue0 int
}

// taskState is the driver's bookkeeping for one task of a set: 40 bytes with
// no pointer in them, so a stage's table is one allocation the collector never
// scans. Executor indices and counts are 32 bits wide for that.
type taskState struct {
	launchAt time.Duration // first launch
	// copies lists the executors currently running an attempt the set launched,
	// -1 in a free place. Two is all a task has had in any run so far — one
	// backup per task (speculated), and a retry is queued only once the failed
	// copy has been dropped — but a zombie of an earlier set of the stage that
	// reports a failure here queues a retry without having held a copy, so a
	// third is not provably out of reach: taskSet.extra takes it (DESIGN.md
	// "What a run allocates").
	copies [2]int32
	// queued counts the task's live tickets in the queue: a retry can queue a
	// task whose speculative copy is still waiting there.
	queued   int32
	attempts int32 // failed attempts (abort threshold)
	launches int32 // total launches (chaos attempt index)
	lastExec int32 // latest executor
	noExec   int32 // executor to avoid (retries, speculative copies), -1 for none
	// member marks the tasks the set runs: every index of a primary set, the
	// lost ones of a recovery set.
	member     bool
	done       bool
	speculated bool
}

// attempt is one running attempt of a task that its taskState had no place
// for.
type attempt struct{ task, exec int32 }

// pendingQueue holds a task set's attempts awaiting a slot. An entry's ticket
// is its index in tickets, which only grows, so ticket order is the order the
// attempts were queued in — the order slots are offered them.
type pendingQueue struct {
	tickets []int // ticket → task, -1 once launched
	head    int   // every ticket before head is launched
	live    int   // tickets not yet launched

	// The locality index, built only for a set with a split whose first block
	// is on fewer nodes than the cluster has; without it every queued task is
	// local to every node. local[node] lists, ascending, the tickets of tasks
	// whose first block has a replica on node, and anywhere those of tasks
	// local everywhere (see taskSet.home). A list sheds launched tickets from
	// its front as picks pass them.
	local    [][]int
	anywhere []int
}

// newTaskSet queues every task of a primary set, or the lost ones of a recovery
// set. blocks is the stage's input layout (nil without an input file), nodes
// the cluster size and sp the run's spares, which the task table, tickets and
// durations are windows of.
func newTaskSet(key setKey, js *jobState, stage *job.StageSpec, recovery bool, only []int, blocks []dfs.Block, nodes int, sp *runSpares) *taskSet {
	ts := &taskSet{
		key:      key,
		js:       js,
		stage:    stage,
		recovery: recovery,
		tasks:    sp.tasks.take(stage.NumTasks),
		blocks:   blocks,
	}
	ts.queue.tickets = sp.tickets.take(stage.NumTasks)[:0]
	if !recovery {
		ts.durations = sp.durations.take(stage.NumTasks)[:0]
	}
	ts.indexLocality(nodes)
	for i := range ts.tasks {
		ts.tasks[i].noExec = -1
		ts.tasks[i].copies = [2]int32{-1, -1}
		if !recovery {
			ts.addTask(i)
		}
	}
	for _, t := range only {
		ts.addTask(t)
	}
	return ts
}

// home returns the nodes holding task's first input block, or everywhere when
// the task is local to every one of the cluster's nodes: it reads no file, its
// split is empty, or the block has that many replicas — replica IDs are
// distinct node IDs, so a list as long as the cluster names all of it, and a
// fully replicated file indexes one ticket per task, not one per task and node.
func (ts *taskSet) home(task, nodes int) (on []int, everywhere bool) {
	split := dfs.Split(ts.blocks, len(ts.tasks), task)
	if len(split) == 0 {
		return nil, true
	}
	if on = split[0].Replicas; len(on) >= nodes {
		return nil, true
	}
	return on, false
}

// indexLocality gives the queue its locality index if any split calls for one.
// A primary set queues each task once up front, so its lists are sized to that
// and carved from one array; a retry or backup copy appended later moves its
// list out. A recovery set queues a few tasks of the stage: its lists grow.
func (ts *taskSet) indexLocality(nodes int) {
	partial := false
	for task := range ts.tasks {
		if _, everywhere := ts.home(task, nodes); !everywhere {
			partial = true
			break
		}
	}
	if !partial {
		return
	}
	q := &ts.queue
	q.local = make([][]int, nodes)
	if ts.recovery {
		return
	}
	counts := make([]int, nodes+1) // [nodes] counts anywhere
	total := 0
	for task := range ts.tasks {
		if on, everywhere := ts.home(task, nodes); everywhere {
			counts[nodes]++
			total++
		} else {
			for _, node := range on {
				counts[node]++
			}
			total += len(on)
		}
	}
	backing := make([]int, total)
	for node, c := range counts[:nodes] {
		q.local[node], backing = backing[:0:c], backing[c:]
	}
	q.anywhere = backing[:0:len(backing)]
}

// enqueue appends a ticket for task to the pending queue.
func (ts *taskSet) enqueue(task int) {
	q := &ts.queue
	ticket := len(q.tickets)
	q.tickets = append(q.tickets, task)
	q.live++
	ts.tasks[task].queued++
	if q.local == nil {
		return
	}
	if on, everywhere := ts.home(task, len(q.local)); everywhere {
		q.anywhere = append(q.anywhere, ticket)
	} else {
		for _, node := range on {
			q.local[node] = append(q.local[node], ticket)
		}
	}
}

// take removes ticket from the queue for launch and returns its task.
func (ts *taskSet) take(ticket int) int {
	q := &ts.queue
	task := q.tickets[ticket]
	q.tickets[ticket] = -1
	q.live--
	ts.tasks[task].queued--
	for q.head < len(q.tickets) && q.tickets[q.head] < 0 {
		q.head++
	}
	return task
}

// pick returns the ticket executor exec on node should launch next — the first
// queued attempt local to node and not excluded from exec, else the first not
// excluded from exec — or -1.
func (ts *taskSet) pick(exec, node int) int {
	q := &ts.queue
	if q.local == nil {
		return ts.first(exec, false)
	}
	ticket := ts.firstOf(&q.local[node], exec)
	if t := ts.firstOf(&q.anywhere, exec); ticket < 0 || t >= 0 && t < ticket {
		ticket = t
	}
	if ticket < 0 {
		ticket = ts.first(exec, false)
	}
	return ticket
}

// first returns the first queued ticket, in queue order, whose task is excluded
// from exec (excluded) or is not (!excluded), or -1. The walk starts at a queued
// ticket and passes only tickets of the other kind and the launched ones among
// them.
func (ts *taskSet) first(exec int, excluded bool) int {
	q := &ts.queue
	for ticket := q.head; ticket < len(q.tickets); ticket++ {
		if task := q.tickets[ticket]; task >= 0 && (int(ts.tasks[task].noExec) == exec) == excluded {
			return ticket
		}
	}
	return -1
}

// firstOf returns the first queued ticket of an index list whose task is not
// excluded from exec, or -1. Launched tickets at the list's front are dropped
// for good; an excluded one is only passed over, since a task's exclusion
// changes while its ticket waits and names one executor.
func (ts *taskSet) firstOf(list *[]int, exec int) int {
	q := &ts.queue
	l := *list
	for len(l) > 0 && q.tickets[l[0]] < 0 {
		l = l[1:]
	}
	*list = l
	for _, ticket := range l {
		if task := q.tickets[ticket]; task >= 0 && int(ts.tasks[task].noExec) != exec {
			return ticket
		}
	}
	return -1
}

// contains reports whether task belongs to this set's domain.
func (ts *taskSet) contains(task int) bool {
	return task >= 0 && task < len(ts.tasks) && ts.tasks[task].member
}

// addTask adds task to the set's domain and queues it; recovery sets grow
// this way when more output is lost while they run.
func (ts *taskSet) addTask(task int) {
	if ts.tasks[task].member {
		return
	}
	ts.tasks[task].member = true
	ts.enqueue(task)
	ts.total++
}

// inFlight reports whether any attempt of task is currently running.
func (ts *taskSet) inFlight(task int) bool {
	st := &ts.tasks[task]
	return st.copies[0] >= 0 || st.copies[1] >= 0 ||
		slices.ContainsFunc(ts.extra, func(a attempt) bool { return int(a.task) == task })
}

// isPending reports whether task is queued for assignment.
func (ts *taskSet) isPending(task int) bool { return ts.tasks[task].queued > 0 }

// addCopy records an attempt of task starting on exec.
func (ts *taskSet) addCopy(task, exec int) {
	st := &ts.tasks[task]
	if i := slices.Index(st.copies[:], -1); i >= 0 {
		st.copies[i] = int32(exec)
	} else {
		ts.extra = append(ts.extra, attempt{int32(task), int32(exec)})
	}
}

// dropCopy removes one running attempt of task on exec, reporting whether
// there was one.
func (ts *taskSet) dropCopy(task, exec int) bool {
	st := &ts.tasks[task]
	if i := slices.Index(st.copies[:], int32(exec)); i >= 0 {
		st.copies[i] = -1
	} else if i := slices.Index(ts.extra, attempt{int32(task), int32(exec)}); i >= 0 {
		ts.extra = slices.Delete(ts.extra, i, i+1)
	} else {
		return false
	}
	return true
}

// taskScheduler places tasks from every job's active sets onto executor
// slots: the TaskScheduler half of the split driver. scheduler.mode decides
// which job's sets are offered a free slot first (see compareJobs); within a
// job, sets are served in ascending stage order so lineage-recovery sets
// (earlier stages) run before the stages that wait on them.
type taskScheduler struct {
	eng *Engine
	// sets lists every running task set, in activeSets' order as of its
	// last call. A set is also its job's sets[stage], the lookup by (job,
	// stage); addSet and dropSet keep the two in step.
	sets []*taskSet
	// deferAssign suppresses assignAll while a same-instant admission
	// batch is in progress, so every job in the batch has its task sets
	// registered before the first slot is offered (see Engine.Wait).
	deferAssign bool
}

func newTaskScheduler(eng *Engine) *taskScheduler {
	return &taskScheduler{eng: eng}
}

// primaryActive counts the active non-recovery task sets.
func (s *taskScheduler) primaryActive() int {
	n := 0
	for _, ts := range s.sets {
		if !ts.recovery {
			n++
		}
	}
	return n
}

// addSet registers a task set as running.
func (s *taskScheduler) addSet(ts *taskSet) {
	s.sets = append(s.sets, ts)
	ts.js.sets[ts.key.stage] = ts
}

// dropSet retires ts, if it is running.
func (s *taskScheduler) dropSet(ts *taskSet) {
	if i := slices.Index(s.sets, ts); i >= 0 {
		s.sets = slices.Delete(s.sets, i, i+1)
		ts.js.sets[ts.key.stage] = nil
	}
}

// activeSets returns the running sets: jobs in scheduler.mode's order, stages
// ascending within each job. The job order is total, so the result is
// deterministic whatever order the sets were added in. It is called once per
// slot offer and allocates nothing: the returned slice is the scheduler's own
// list, put in order again on each call (a job's place moves with its running
// count) and valid until the next call or dropSet — callers iterate it and
// must not call either (directly or through assign) while they do. A set
// addSet appends meanwhile is not in the returned slice.
func (s *taskScheduler) activeSets() []*taskSet {
	if len(s.sets) > 1 {
		slices.SortFunc(s.sets, func(a, b *taskSet) int {
			return cmp.Or(s.compareJobs(a.key.job, b.key.job), cmp.Compare(a.key.stage, b.key.stage))
		})
	}
	return s.sets
}

// compareJobs orders jobs a and b for free slots, like Spark's inter-job
// scheduler. FIFO serves jobs in submission order: an earlier job takes every
// slot it can use before a later job sees any. FAIR offers slots to the job
// with the fewest running tasks, evening out each job's share of the executor
// pool (Spark's FAIR pools with equal weights). Ties go by ID, so the order is
// total and scheduling deterministic.
func (s *taskScheduler) compareJobs(a, b int) int {
	ja, jb := s.eng.jobs[a], s.eng.jobs[b]
	if s.eng.cfg.fair {
		return cmp.Or(cmp.Compare(ja.running, jb.running), cmp.Compare(a, b))
	}
	return cmp.Or(cmp.Compare(ja.rep.SubmittedAt, jb.rep.SubmittedAt), cmp.Compare(a, b))
}

// handleTaskDone routes a completion to its task set by (job, stage).
func (s *taskScheduler) handleTaskDone(m *driverMsg) {
	e := s.eng
	em := e.em
	if !em.alive[m.exec] || m.epoch != em.epochs[m.exec] {
		// A stale incarnation's message, or a result from an executor the
		// failure detector declared lost (possibly a false positive whose
		// epochs still match — it has not been fenced yet). Either way its
		// slots were reclaimed at loss detection and its tasks requeued:
		// accepting the result would double-count it and double-release
		// the slot.
		return
	}
	em.completed(m.exec, m.job)
	js := e.jobs[m.job]
	if !js.done {
		// Task-level I/O attribution: every attempt reported while the
		// job runs charges the job, including failed and losing
		// speculative attempts — they occupied the devices on the job's
		// behalf.
		if e.bug != bugDropTaskBytes {
			js.rep.DiskReadBytes += m.metrics.DiskReadBytes
		}
		js.rep.DiskWriteBytes += m.metrics.DiskWriteBytes
		js.rep.NetBytes += m.metrics.NetBytes
		js.rep.FetchRetries += m.metrics.FetchRetries
		js.rep.ChecksumFailovers += m.metrics.ChecksumFailovers
		e.tel.onTaskMetrics(m.metrics)
		if e.aud != nil {
			e.aud.TaskAccepted(m.job, m.metrics)
		}
	}
	ts := js.sets[m.metrics.Stage]
	if ts == nil {
		// A zombie from a finished stage or job (e.g. a losing
		// speculative copy); its executor slot frees now.
		s.assign(m.exec)
		return
	}
	idx := m.metrics.Index
	st := &ts.tasks[idx]
	ts.dropCopy(idx, m.exec)

	if m.err != nil {
		e.trace(TraceEvent{Type: TraceTaskFail, Job: m.job, Stage: ts.stage.ID, Task: idx, Exec: m.exec, Detail: m.err.Error()})
		if st.done {
			// The other attempt already won; nothing to redo.
			s.assign(m.exec)
			return
		}
		var ff *fetchFailedError
		if errors.As(m.err, &ff) {
			// Real map output died with a node. Not the task's fault:
			// requeue without charging an attempt, and resubmit the
			// lost parent map tasks (lineage).
			ts.enqueue(idx)
			js.requeues++
			s.ensureParents(ts)
			s.assignAll()
			return
		}
		st.attempts++
		if int(st.attempts) >= e.cfg.maxFailures {
			e.failJob(js, ts.stage.ID, fmt.Errorf("task %d failed %d times, last on executor %d: %w",
				idx, st.attempts, m.exec, m.err))
			s.assignAll()
			return
		}
		if !ts.recovery {
			ts.rep.Retries++
		}
		// Retry genuinely avoids the executor that just failed it.
		st.noExec = int32(m.exec)
		em.noteFailure(m.exec, m.job, ts.stage.ID)
		ts.enqueue(idx)
		for i := range e.executors {
			s.assign((m.exec + 1 + i) % len(e.executors))
		}
		return
	}

	em.failStreak[m.exec] = 0
	if st.done {
		// The other attempt already won the race.
		s.assign(m.exec)
		return
	}
	st.done = true
	ts.done++
	e.tasksDone++
	e.trace(TraceEvent{Type: TraceTaskEnd, Job: m.job, Stage: ts.stage.ID, Task: idx, Exec: m.exec})
	if !ts.recovery {
		ts.durations = append(ts.durations, m.metrics.Duration())
		st := &ts.rep.Execs[m.exec]
		st.Tasks++
		if m.metrics.Local {
			st.LocalTasks++
		}
		st.BlockedIO += m.metrics.BlockedIO
		st.Bytes += m.metrics.BytesMoved
		ts.rep.Speculative += s.speculate(ts)
	}
	if ts.recovery && ts.done >= ts.total {
		// The lost map outputs are regenerated; dependents unblock.
		s.dropSet(ts)
		e.trace(TraceEvent{Type: TraceStageEnd, Job: m.job, Stage: ts.stage.ID, Task: -1, Exec: -1, Detail: "recovery complete"})
		s.assignAll()
		return
	}
	if !ts.recovery && ts.done >= ts.total {
		e.completeStage(ts)
		s.assignAll()
		return
	}
	s.assign(m.exec)
}

// handleThreads applies a ThreadCountUpdate to the slot table.
func (s *taskScheduler) handleThreads(m *driverMsg) {
	em := s.eng.em
	if !em.alive[m.exec] || m.epoch != em.epochs[m.exec] {
		return
	}
	s.eng.trace(TraceEvent{Type: TraceResize, Job: m.job, Stage: m.stage, Task: -1, Exec: m.exec, Threads: m.threads})
	em.limits[m.exec] = m.threads
	s.assign(m.exec)
}

// handleExecLost reacts to the failure detector declaring an executor lost
// (heartbeat timeout). The detector posts through the driver mailbox, so by
// the time this runs a beat or a crash may have raced ahead of the
// declaration — the aliveness/epoch guard drops those stale declarations.
func (s *taskScheduler) handleExecLost(m *driverMsg) {
	em := s.eng.em
	if !em.alive[m.exec] || m.epoch != em.epochs[m.exec] {
		return
	}
	s.processLoss(m.exec, DetailHeartbeatTimeout)
}

// processLoss declares one executor incarnation lost: reclaim its slots,
// drop its map outputs from the shuffle registry, requeue its in-flight
// attempts in every job, un-complete tasks whose registered map output died
// with the node, and resubmit lost parent outputs other sets depend on.
func (s *taskScheduler) processLoss(exec int, reason string) {
	e := s.eng
	em := e.em
	em.markLost(exec, em.epochs[exec])
	// Spark-style pessimism: a lost executor's map outputs are unreachable
	// whether the process died or merely fell silent, so invalidate them at
	// declaration time.
	e.removeShuffleNode(e.executors[exec].node.ID)
	e.trace(TraceEvent{Type: TraceExecLost, Job: -1, Stage: -1, Task: -1, Exec: exec, Detail: reason})
	for _, js := range e.jobs {
		if js.started && !js.done {
			js.rep.LostExecutors++
		}
	}

	s.reclaimNode(exec)
	em.liftStranded()
	if !em.anyAssignable() && !e.restartPending() {
		e.fatal = fmt.Errorf("all executors lost at %s", e.k.Now())
		return
	}
	s.assignAll()
}

// reclaimNode repairs every active set after an executor's work and shuffle
// output left the cluster — by crash, loss declaration or graceful
// decommission: requeue its in-flight attempts, un-complete tasks whose
// registered output died with the node, and resubmit lost parent outputs
// other sets depend on. The caller has already dropped the node from the
// shuffle registry.
func (s *taskScheduler) reclaimNode(exec int) {
	e := s.eng
	sets := s.activeSets()
	for _, ts := range sets {
		// Requeue attempts that were running on the dead executor.
		for task := range ts.tasks {
			if !ts.dropCopy(task, exec) {
				continue
			}
			if !ts.tasks[task].done && !ts.inFlight(task) && !ts.isPending(task) {
				ts.enqueue(task)
				ts.js.requeues++
			}
		}
		// Un-complete tasks whose shuffle output lived on the dead
		// node: their results are gone even though they finished.
		for _, task := range e.shuffle.lostTasks(ts.key) {
			if ts.contains(task) && ts.tasks[task].done {
				ts.tasks[task].done = false
				ts.done--
				if !ts.inFlight(task) && !ts.isPending(task) {
					ts.enqueue(task)
				}
				ts.js.requeues++
			}
		}
	}
	// Dependencies of running sets may now have holes in earlier stages. The
	// recovery sets this adds are not visited: each repairs its own parents.
	for _, ts := range sets {
		s.ensureParents(ts)
	}
}

// handleExecJoin re-admits a restarted (or fenced-and-rejoined) executor:
// fresh slot count from the policy's initial threads (cmin for the dynamic
// policy) and the active primary stages re-sent so its fresh per-stage
// controllers start new hill climbs. A join can arrive while the driver
// still believes the previous incarnation is alive — the restart raced
// ahead of the failure detector — in which case the old incarnation is
// declared lost first, so its in-flight work is requeued rather than
// black-holed against the new epoch.
func (s *taskScheduler) handleExecJoin(m *driverMsg) {
	e := s.eng
	em := e.em
	if m.epoch <= em.epochs[m.exec] {
		// Duplicate or stale join announcement.
		return
	}
	if em.alive[m.exec] {
		s.processLoss(m.exec, "superseded by restarted incarnation")
		if e.fatal != nil {
			return
		}
	}
	em.markJoined(m.exec, m.epoch)
	ex := e.executors[m.exec]
	limit := 0
	for _, ts := range s.activeSets() {
		if ts.recovery {
			continue
		}
		init := e.opts.Policy.InitialThreads(ex.info, ts.stage.Meta())
		if limit == 0 || init < limit {
			limit = init
		}
		e.sendExec(ex, execMsg{kind: execStageStart, launchMsg: launchMsg{job: ts.key.job, stage: ts.stage}})
	}
	em.limits[m.exec] = limit
	s.assign(m.exec)
}

// handleHeartbeat feeds one executor beat to the failure detector. A beat
// from an executor already declared lost is the false-positive signature —
// the process was slow or partitioned, not dead — and since its tasks were
// requeued at declaration, the incarnation must be fenced: it is ordered to
// adopt a fresh epoch (turning its in-flight work into zombies) and rejoin
// through the normal join path.
func (s *taskScheduler) handleHeartbeat(m *driverMsg) {
	e := s.eng
	em := e.em
	if em.alive[m.exec] {
		if m.epoch != em.epochs[m.exec] {
			return
		}
		em.noteBeat(m)
		return
	}
	if m.epoch != em.epochs[m.exec] || em.fencing[m.exec] {
		// A truly dead incarnation's last gasp, or the fence order is
		// already in flight.
		return
	}
	em.fencing[m.exec] = true
	for _, js := range e.jobs {
		if js.started && !js.done {
			js.rep.Fenced++
		}
	}
	e.sendExec(e.executors[m.exec], execMsg{kind: execFence, launchMsg: launchMsg{epoch: em.epochs[m.exec] + 1}})
}

// ensureParents resubmits lost map outputs of every upstream stage ts
// fetches from (recursively — a recovery set can itself depend on an even
// earlier stage). Already-running recovery sets are extended in place.
func (s *taskScheduler) ensureParents(ts *taskSet) {
	e := s.eng
	for _, parent := range ts.stage.ShuffleFrom {
		pkey := setKey{job: ts.key.job, stage: parent}
		lost := e.shuffle.lostTasks(pkey)
		if len(lost) == 0 {
			continue
		}
		if ps := ts.js.sets[parent]; ps != nil {
			if ps.recovery {
				for _, task := range lost {
					if !ps.contains(task) {
						ps.addTask(task)
					}
				}
			}
			// A non-recovery active parent is still running its
			// primary wave; handleExecLost already requeued its lost
			// tasks.
			continue
		}
		spec := ts.js.spec.Stages[parent]
		var blocks []dfs.Block
		if spec.InputFile != "" {
			if f, err := e.fs.Open(spec.InputFile); err == nil {
				blocks = f.Blocks
			}
		}
		rs := newTaskSet(pkey, ts.js, spec, true, lost, blocks, len(e.executors), e.spares)
		s.addSet(rs)
		ts.js.rep.ResubmittedStages++
		e.trace(TraceEvent{Type: TraceStageResubmit, Job: ts.key.job, Stage: parent, Task: -1, Exec: -1,
			Detail: fmt.Sprintf("%d lost map outputs, wanted by stage %d", len(lost), ts.stage.ID)})
		s.ensureParents(rs)
	}
}

// blocked reports whether ts must wait for upstream recovery: launching its
// reduce tasks now would plan around the lost outputs and under-fetch.
func (s *taskScheduler) blocked(ts *taskSet) bool {
	return len(ts.stage.ShuffleFrom) > 0 && s.eng.shuffle.missing(ts.key.job, ts.stage.ShuffleFrom)
}

// pendingTotal sums queued task attempts across active sets — for one job,
// or engine-wide with job < 0 (the autoscaler's backlog gauge).
func (s *taskScheduler) pendingTotal(job int) int {
	n := 0
	for _, ts := range s.sets {
		if job < 0 || ts.key.job == job {
			n += ts.queue.live
		}
	}
	return n
}

func (s *taskScheduler) assignAll() {
	if s.deferAssign {
		return
	}
	for i := range s.eng.executors {
		s.assign(i)
	}
}

// assign hands pending tasks to executor i while it has free slots,
// serving jobs in scheduler.mode's order (and recovery sets before the waves
// that wait on them), preferring tasks whose DFS split is local to the
// executor's node and honouring per-task executor exclusions.
func (s *taskScheduler) assign(i int) {
	em := s.eng.em
	if !em.assignable(i) {
		return
	}
	s.eng.tel.onSlotOffer()
	for em.inflight[i] < em.limits[i] {
		ts, pick := s.pickTask(i)
		if ts == nil {
			return
		}
		s.launch(ts, pick, i)
	}
}

// pickTask selects the ticket of the next pending task executor i should run:
// first a local non-excluded task, then any non-excluded task, offering task
// sets in scheduler.mode's order. If no other executor has free slots,
// exclusions against i are cleared rather than letting work stall.
func (s *taskScheduler) pickTask(i int) (*taskSet, int) {
	node := s.eng.executors[i].node.ID
	sets := s.activeSets()
	for _, ts := range sets {
		if ts.queue.live == 0 || s.blocked(ts) {
			continue
		}
		if ticket := ts.pick(i, node); ticket >= 0 {
			return ts, ticket
		}
	}
	if !s.eng.em.otherFree(i) {
		// Everything pending is excluded from i, but i is the only
		// executor with free slots: drop the exclusions.
		for _, ts := range sets {
			if ts.queue.live == 0 || s.blocked(ts) {
				continue
			}
			if ticket := ts.first(i, true); ticket >= 0 {
				ts.tasks[ts.queue.tickets[ticket]].noExec = -1
				return ts, ticket
			}
		}
	}
	return nil, -1
}

// launch takes ticket off ts's queue and sends its task to executor i with a
// freshly-computed input plan.
func (s *taskScheduler) launch(ts *taskSet, ticket, i int) {
	e := s.eng
	ex := e.executors[i]
	task := ts.take(ticket)
	st := &ts.tasks[task]
	e.em.launched(i, ts.key.job)
	if ts.js.firstLaunch < 0 {
		ts.js.firstLaunch = e.k.Now()
		e.tel.onJobLaunched(e.k.Now() - ts.js.rep.SubmittedAt)
	}
	ts.addCopy(task, i)
	if st.launches == 0 {
		st.launchAt = e.k.Now()
		if !ts.recovery {
			e.tel.onTaskQueued(e.k.Now() - ts.rep.Start)
		}
	}
	st.lastExec = int32(i)
	detail := ""
	if ts.recovery {
		detail = "recovery"
	}
	e.trace(TraceEvent{Type: TraceTaskLaunch, Job: ts.key.job, Stage: ts.stage.ID, Task: task, Exec: i, Detail: detail})

	lm := launchMsg{job: ts.key.job, stage: ts.stage, index: task, attempt: int(st.launches), epoch: e.em.epochs[i]}
	st.launches++
	lm.blocks = dfs.Split(ts.blocks, len(ts.tasks), task)
	for _, b := range lm.blocks {
		lm.inputTotal += b.Size
	}
	if len(ts.stage.ShuffleFrom) > 0 {
		lm.segments = e.shuffle.reducePlan(ts.key.job, ts.stage.ShuffleFrom, ts.stage.NumTasks, task, e.takePlan())
		for _, seg := range lm.segments {
			lm.inputTotal += seg.bytes
		}
	}
	e.sendExec(ex, execMsg{kind: execLaunch, launchMsg: lm})
}

// speculate launches backup copies of stragglers once the stage is mostly
// done (Spark's speculation): tasks still running past Multiplier× the
// median completed duration are re-queued for a different executor. Each
// task is speculated at most once. It returns the number of copies queued.
// Simultaneous stragglers are queued in ascending task order. The durations
// are sorted in place: all but the latest are still in order from the last
// call, so the sort has that one to place.
func (s *taskScheduler) speculate(ts *taskSet) int {
	e := s.eng
	if !e.cfg.speculation || len(ts.durations) == 0 {
		return 0
	}
	if float64(ts.done) < e.cfg.specQuantile*float64(ts.stage.NumTasks) {
		return 0
	}
	slices.Sort(ts.durations)
	median := ts.durations[len(ts.durations)/2]
	threshold := time.Duration(float64(median) * e.cfg.specMultiplier)
	launched := 0
	for task := range ts.tasks {
		st := &ts.tasks[task]
		if st.done || st.speculated || !ts.inFlight(task) {
			continue
		}
		if e.k.Now()-st.launchAt <= threshold {
			continue
		}
		st.speculated = true
		st.noExec = st.lastExec
		ts.enqueue(task)
		e.trace(TraceEvent{Type: TraceSpeculate, Job: ts.key.job, Stage: ts.stage.ID, Task: task, Exec: int(st.lastExec)})
		launched++
	}
	if launched > 0 {
		s.assignAll()
	}
	return launched
}
