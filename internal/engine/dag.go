package engine

import (
	"fmt"
	"slices"
	"time"

	"sae/internal/cluster"
	"sae/internal/dfs"
	"sae/internal/engine/job"
	"sae/internal/metrics"
	"sae/internal/psres"
)

// jobState is the driver's per-job DAG bookkeeping: which stages wait on
// which, which have finished, and the job's attributed I/O and fault
// counters. It is the DAGScheduler half of the split driver — stage
// dependencies and lifecycle live here, while slot accounting and task
// placement live in taskScheduler/execManager.
type jobState struct {
	id   int
	spec *job.JobSpec
	// rep is the report being built. The driver counts the job's fault,
	// gray-failure and task-attributed I/O totals straight into it, each
	// primary task set fills its own entry of rep.Stages, and finishJob
	// completes it. Task-attributed I/O sums the TaskMetrics of every
	// attempt reported while the job ran, so concurrent jobs never
	// double-count each other's device traffic (unlike cluster-global
	// counter deltas).
	rep JobReport

	// Indexed by stage ID. A stage's parents are the deduplicated union of
	// its ShuffleFrom and DependsOn edges; children[s] lists the stages with
	// parent s, and waiting[s] counts s's unfinished parents. A stage
	// activates when waiting hits zero, so stages with no path between them
	// run concurrently. sets[s] is the stage's running task set, if any.
	children [][]int
	waiting  []int
	sets     []*taskSet

	finished int

	// running counts the job's in-flight task attempts cluster-wide — the
	// FAIR scheduler's share measure.
	running int

	// firstLaunch is when the job's first task attempt left the driver
	// (-1 until then); firstLaunch − SubmittedAt is the job's queueing delay.
	firstLaunch time.Duration

	// requeues counts the job's requeued attempts; JobReport has no total,
	// stage windows slice it into StageReport.Requeued.
	requeues int

	err     error
	started bool
	done    bool
}

func newJobState(id int, spec *job.JobSpec, submitAt time.Duration) *jobState {
	n := len(spec.Stages)
	js := &jobState{
		id:   id,
		spec: spec,
		rep: JobReport{
			ID:          id,
			Job:         spec.Name,
			Tenant:      spec.Tenant,
			Priority:    spec.Priority,
			SubmittedAt: submitAt,
			Stages:      make([]StageReport, n),
		},
		children:    make([][]int, n),
		waiting:     make([]int, n),
		sets:        make([]*taskSet, n),
		firstLaunch: -1,
	}
	for _, st := range spec.Stages {
		deps := append(slices.Clone(st.ShuffleFrom), st.DependsOn...)
		slices.Sort(deps)
		deps = slices.Compact(deps)
		js.waiting[st.ID] = len(deps)
		for _, d := range deps {
			js.children[d] = append(js.children[d], st.ID)
		}
	}
	return js
}

// startJob admits a job at its scheduled time (event context): resolve
// every stage's task count up front, then activate the DAG's root stages in
// ID order.
func (e *Engine) startJob(js *jobState) {
	js.started = true
	e.tel.registerJob(js)
	e.trace(TraceEvent{Type: TraceJobStart, Job: js.id, Stage: -1, Task: -1, Exec: -1, Detail: js.spec.Name})
	for _, st := range js.spec.Stages {
		if err := e.resolveTasks(st); err != nil {
			e.failJob(js, st.ID, err)
			return
		}
	}
	for id, n := range js.waiting {
		if n > 0 {
			continue
		}
		e.activateStage(js, id)
		if js.done {
			return
		}
	}
}

// activateStage starts one runnable stage: build its task set, snapshot the
// cluster counters for the stage window, broadcast the stage to live
// executors and assign the first task wave.
func (e *Engine) activateStage(js *jobState, id int) {
	spec := js.spec.Stages[id]
	key := setKey{job: js.id, stage: id}
	var blocks []dfs.Block
	if spec.InputFile != "" {
		f, err := e.fs.Open(spec.InputFile)
		if err != nil {
			e.failJob(js, id, err)
			return
		}
		blocks = f.Blocks
	}
	ts := newTaskSet(key, js, spec, false, nil, blocks, len(e.executors), e.spares)
	// Does any other primary stage share the pool right now? If so the
	// executors' effective limit is the minimum over the active stages'
	// controller choices, and the slot table must follow the same rule.
	shared := e.sched.primaryActive() > 0
	e.sched.addSet(ts)

	meta := spec.Meta()
	for i, ex := range e.executors {
		if !e.em.alive[i] {
			e.em.limits[i] = 0
			continue
		}
		init := e.opts.Policy.InitialThreads(ex.info, meta)
		if shared && e.em.limits[i] < init {
			// Keep the tighter limit another active stage's controller
			// already chose; the executor computes the same minimum.
		} else {
			e.em.limits[i] = init
		}
		e.sendExec(ex, execMsg{kind: execStageStart, launchMsg: launchMsg{job: js.id, stage: spec}})
	}

	// The set fills its stage's entry of the job's report as it runs.
	ts.rep = &js.rep.Stages[id]
	*ts.rep = StageReport{ID: id, Name: spec.Name, IOMarked: spec.IOMarked(), Start: e.k.Now(),
		Execs: make([]ExecutorStageStats, len(e.executors))}
	for i, ex := range e.executors {
		ts.rep.Execs[i] = ExecutorStageStats{
			Executor:       i,
			Node:           ex.node.ID,
			InitialThreads: e.em.limits[i],
		}
	}

	// Stage-boundary snapshots for the utilization window. Under
	// concurrent stages/jobs the windows overlap on the shared cluster —
	// the percentages then describe the cluster during this stage, not
	// this stage's own traffic (per-job traffic is task-attributed).
	// A sharded run skips the snapshots: node meters and device
	// counters advance concurrently on their shards, and reading them
	// mid-window would be both racy and nondeterministic. Those runs
	// report zero utilization columns (see DESIGN.md "Sharded simulation").
	ts.usage0 = make([]cluster.Usage, e.cluster.Size())
	ts.disk0 = make([]psres.Stats, e.cluster.Size())
	if e.ss == nil {
		for i, n := range e.cluster.Nodes() {
			ts.usage0[i] = n.Usage()
			ts.disk0[i] = n.Disk.Snapshot()
			r, w := n.Disk.Counters()
			ts.read0 += r
			ts.write0 += w
			ts.net0 += n.NIC.BytesMoved()
		}
	}
	ts.lost0, ts.resub0, ts.requeue0 = js.rep.LostExecutors, js.rep.ResubmittedStages, js.requeues
	ts.recovered0 = js.rep.RecoveredBytes

	e.trace(TraceEvent{Type: TraceStageStart, Job: js.id, Stage: id, Task: -1, Exec: -1,
		Detail: fmt.Sprintf("%s (%d tasks)", spec.Name, spec.NumTasks)})
	// Map outputs lost to crashes during earlier stages must be
	// regenerated before this stage's reduce tasks can fetch.
	e.sched.ensureParents(ts)
	e.sched.assignAll()
}

// completeStage closes a finished primary stage: complete its StageReport,
// retire the executors' per-stage controllers, and activate any children
// whose dependencies are now all met.
func (e *Engine) completeStage(ts *taskSet) {
	js := ts.js
	id := ts.key.stage
	e.sched.dropSet(ts)
	e.trace(TraceEvent{Type: TraceStageEnd, Job: js.id, Stage: id, Task: -1, Exec: -1})
	for i, ex := range e.executors {
		if e.em.alive[i] {
			e.sendExec(ex, execMsg{kind: execStageEnd, launchMsg: launchMsg{job: js.id, stage: ts.stage}})
		}
	}

	sr := ts.rep
	sr.End = e.k.Now()
	sr.LostExecutors = js.rep.LostExecutors - ts.lost0
	sr.ResubmittedStages = js.rep.ResubmittedStages - ts.resub0
	sr.Requeued = js.requeues - ts.requeue0
	sr.RecoveredBytes = js.rep.RecoveredBytes - ts.recovered0
	if d := ts.durations; len(d) > 0 {
		// The set is done with its ledger: sort it where it lies.
		slices.Sort(d)
		sr.TaskP50, sr.TaskP95, sr.TaskMax = metrics.NearestRank(d, 0.5), metrics.NearestRank(d, 0.95), metrics.NearestRank(d, 1)
	}
	vcores := e.opts.Cluster.CPU.VirtualCores
	if e.ss == nil {
		for i, n := range e.cluster.Nodes() {
			u := n.Usage()
			d := n.Disk.Snapshot()
			sr.CPUPercent += cluster.CPUPercent(ts.usage0[i], u, vcores)
			sr.IowaitPercent += cluster.IowaitPercent(ts.usage0[i], u, vcores)
			sr.DiskUtilPercent += cluster.DiskUtilization(ts.disk0[i], d)
			r, w := n.Disk.Counters()
			sr.DiskReadBytes += r
			sr.DiskWriteBytes += w
			sr.NetBytes += n.NIC.BytesMoved()
		}
		nn := float64(e.cluster.Size())
		sr.CPUPercent /= nn
		sr.IowaitPercent /= nn
		sr.DiskUtilPercent /= nn
		sr.DiskReadBytes -= ts.read0
		sr.DiskWriteBytes -= ts.write0
		sr.NetBytes -= ts.net0
	}
	for i, ex := range e.executors {
		limit := ex.limit
		if e.ss != nil {
			// The executor's pool size lives on its shard; report the
			// driver's slot-table view, which the ThreadCountUpdate
			// protocol keeps current.
			limit = e.em.limits[i]
		}
		sr.Execs[i].FinalThreads = limit
		sr.ThreadsTotal += limit
		sr.MaxThreadsTotal += ex.info.MaxThreads
	}

	js.finished++
	if js.finished == len(js.spec.Stages) {
		e.finishJob(js)
		return
	}
	for _, child := range js.children[id] {
		js.waiting[child]--
		if js.waiting[child] == 0 {
			e.activateStage(js, child)
			if js.done {
				return
			}
		}
	}
}

// finishJob completes the job's report and releases its shuffle state.
func (e *Engine) finishJob(js *jobState) {
	js.done = true
	rep := &js.rep
	if js.firstLaunch >= 0 {
		rep.QueueDelay = js.firstLaunch - rep.SubmittedAt
	}
	rep.Policy = e.opts.Policy.Name()
	rep.Sched = "FIFO"
	if e.cfg.fair {
		rep.Sched = "FAIR"
	}
	rep.Runtime = e.k.Now() - rep.SubmittedAt
	// Each executor's thread log is shared up to its current length, capped
	// there so the executor's later appends cannot reach the report's rows.
	rep.Decisions = make([][]job.Decision, len(e.executors))
	rep.ThreadLogs = make([][]ThreadChange, len(e.executors))
	for i, ex := range e.executors {
		rep.Decisions[i] = ex.jobDecisions(js.id)
		n := len(ex.threadLog)
		rep.ThreadLogs[i] = ex.threadLog[:n:n]
	}
	if e.aud != nil {
		// Before dropJob so the auditor can close out the job's shuffle
		// mirror alongside the registry.
		e.aud.JobFinished(rep)
	}
	e.shuffle.dropJob(js.id)
	e.completed++
	e.trace(TraceEvent{Type: TraceJobEnd, Job: js.id, Stage: -1, Task: -1, Exec: -1, Detail: js.spec.Name})
	e.wakeDriver()
	// Draining nodes may have been serving only this job's shuffle output;
	// with its registrations dropped they can finally decommission.
	e.auto.flushDrains()
}

// failJob aborts one job without touching the others: its task sets are
// dropped (in-flight attempts complete as no-ops) and its error is held for
// the job's handle.
func (e *Engine) failJob(js *jobState, stage int, err error) {
	js.err = fmt.Errorf("job %s stage %d: %w", js.spec.Name, stage, err)
	js.done = true
	for _, ts := range js.sets {
		if ts != nil {
			e.sched.dropSet(ts)
		}
	}
	e.completed++
	e.trace(TraceEvent{Type: TraceJobEnd, Job: js.id, Stage: stage, Task: -1, Exec: -1, Detail: js.err.Error()})
	e.wakeDriver()
}

// wakeDriver nudges the driver loop so it re-checks its completion count.
// The zero-value message matches no handler and is ignored.
func (e *Engine) wakeDriver() {
	e.toDriver.Send(0, driverMsg{})
}

// resolveTasks fills in the stage's task count from its input layout.
func (e *Engine) resolveTasks(stage *job.StageSpec) error {
	if stage.NumTasks > 0 {
		return nil
	}
	if stage.InputFile == "" {
		return fmt.Errorf("stage %d has neither tasks nor input", stage.ID)
	}
	f, err := e.fs.Open(stage.InputFile)
	if err != nil {
		return err
	}
	stage.NumTasks = len(f.Blocks)
	if stage.NumTasks == 0 {
		stage.NumTasks = 1
	}
	return nil
}
