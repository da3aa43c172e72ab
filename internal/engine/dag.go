package engine

import (
	"fmt"
	"slices"
	"sort"
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
	id       int
	spec     *job.JobSpec
	specs    map[int]*job.StageSpec
	submitAt time.Duration

	// parents[s] is the sorted, deduplicated union of ShuffleFrom and
	// DependsOn edges; children is its transpose; waiting[s] counts
	// unfinished parents. A stage activates when waiting hits zero, so
	// stages with no path between them run concurrently.
	parents  map[int][]int
	children map[int][]int
	waiting  map[int]int

	finished int
	// stageReports is indexed by stage ID, filled as stages complete.
	stageReports []StageReport

	// running counts the job's in-flight task attempts cluster-wide — the
	// Fair policy's share measure.
	running int

	// firstLaunch is when the job's first task attempt left the driver
	// (-1 until then); firstLaunch − submitAt is the job's queueing delay.
	firstLaunch time.Duration

	// Per-job fault counters (window-sliced into StageReports).
	lostExecs     int
	resubmissions int
	requeues      int

	// Gray-failure counters: executors suspected by the heartbeat detector
	// while the job ran, false-positive incarnations fenced, bounded
	// shuffle-fetch retries and DFS checksum-mismatch replica failovers
	// summed from the job's task attempts.
	suspected         int
	fenced            int
	fetchRetries      int
	checksumFailovers int

	// Task-attributed I/O totals: summed from TaskMetrics of every
	// attempt reported while the job ran, so concurrent jobs never
	// double-count each other's device traffic (unlike cluster-global
	// counter deltas).
	diskReadB  int64
	diskWriteB int64
	netB       int64

	report  *JobReport
	err     error
	started bool
	done    bool
}

func newJobState(id int, spec *job.JobSpec, submitAt time.Duration) *jobState {
	js := &jobState{
		id:           id,
		spec:         spec,
		specs:        make(map[int]*job.StageSpec, len(spec.Stages)),
		submitAt:     submitAt,
		parents:      make(map[int][]int, len(spec.Stages)),
		children:     make(map[int][]int, len(spec.Stages)),
		waiting:      make(map[int]int, len(spec.Stages)),
		stageReports: make([]StageReport, len(spec.Stages)),
		firstLaunch:  -1,
	}
	for _, st := range spec.Stages {
		js.specs[st.ID] = st
		deps := append([]int(nil), st.ShuffleFrom...)
		deps = append(deps, st.DependsOn...)
		sort.Ints(deps)
		uniq := deps[:0]
		for i, d := range deps {
			if i == 0 || d != deps[i-1] {
				uniq = append(uniq, d)
			}
		}
		js.parents[st.ID] = uniq
		js.waiting[st.ID] = len(uniq)
		for _, d := range uniq {
			js.children[d] = append(js.children[d], st.ID)
		}
	}
	return js
}

// roots returns the stage IDs with no dependencies, in ascending order.
func (js *jobState) roots() []int {
	var ids []int
	for _, st := range js.spec.Stages {
		if js.waiting[st.ID] == 0 {
			ids = append(ids, st.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// startJob admits a job at its scheduled time (event context): resolve
// every stage's task count up front, then activate the DAG's root stages.
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
	for _, id := range js.roots() {
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
	spec := js.specs[id]
	key := setKey{job: js.id, stage: id}
	var splits [][]dfs.Block
	var input int64
	if spec.InputFile != "" {
		f, err := e.fs.Open(spec.InputFile)
		if err != nil {
			e.failJob(js, id, err)
			return
		}
		splits = dfs.Splits(f, spec.NumTasks)
		input = f.Size
	}
	if spec.OutputFile != "" && spec.Work == nil {
		// An analytic task writes one output block per chunk and has
		// max(1, ⌈max(input, shuffle + file output) / ChunkBytes⌉) chunks (see
		// job.AnalyticOps): tell the file system how many blocks are coming. A
		// generator of the stage's own may write any number, so it gets no hint.
		input += e.shuffle.validBytes(js.id, spec.ShuffleFrom)
		e.fs.Reserve(spec.OutputFile, spec.NumTasks+int(max(input, spec.ShuffleWriteBytes+spec.OutputBytes)/job.ChunkBytes))
	}
	ts := newTaskSet(key, js, spec, false, nil, splits, len(e.executors), e.spares)
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
		e.sendExec(ex, execMsg{stageStart: &stageStartMsg{job: js.id, stage: spec}})
	}

	// Stage-boundary snapshots for the utilization window. Under
	// concurrent stages/jobs the windows overlap on the shared cluster —
	// the percentages then describe the cluster during this stage, not
	// this stage's own traffic (per-job traffic is task-attributed).
	// A sharded run skips the snapshots: node meters and device
	// counters advance concurrently on their shards, and reading them
	// mid-window would be both racy and nondeterministic. Those runs
	// report zero utilization columns (see DESIGN.md "Sharded simulation").
	ts.start = e.k.Now()
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
	ts.lost0, ts.resub0, ts.requeue0 = js.lostExecs, js.resubmissions, js.requeues
	ts.recovered0 = e.shuffle.recoveredBytes(js.id)

	ts.stats = make([]ExecutorStageStats, len(e.executors))
	for i, ex := range e.executors {
		ts.stats[i] = ExecutorStageStats{
			Executor:       i,
			Node:           ex.node.ID,
			InitialThreads: e.em.limits[i],
		}
	}

	e.trace(TraceEvent{Type: TraceStageStart, Job: js.id, Stage: id, Task: -1, Exec: -1,
		Detail: fmt.Sprintf("%s (%d tasks)", spec.Name, spec.NumTasks)})
	// Map outputs lost to crashes during earlier stages must be
	// regenerated before this stage's reduce tasks can fetch.
	e.sched.ensureParents(ts)
	e.sched.assignAll()
}

// completeStage closes a finished primary stage: build its StageReport,
// retire the executors' per-stage controllers, and activate any children
// whose dependencies are now all met.
func (e *Engine) completeStage(ts *taskSet) {
	js := ts.js
	id := ts.key.stage
	e.sched.dropSet(ts.key)
	e.trace(TraceEvent{Type: TraceStageEnd, Job: js.id, Stage: id, Task: -1, Exec: -1})
	for i, ex := range e.executors {
		if e.em.alive[i] {
			e.sendExec(ex, execMsg{stageEnd: &stageEndMsg{job: js.id, stage: id}})
		}
	}

	sr := StageReport{
		ID:                id,
		Name:              ts.stage.Name,
		IOMarked:          ts.stage.IOMarked(),
		Start:             ts.start,
		End:               e.k.Now(),
		Retries:           ts.retries,
		Speculative:       ts.speculative,
		LostExecutors:     js.lostExecs - ts.lost0,
		ResubmittedStages: js.resubmissions - ts.resub0,
		Requeued:          js.requeues - ts.requeue0,
		RecoveredBytes:    e.shuffle.recoveredBytes(js.id) - ts.recovered0,
	}
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
		ts.stats[i].FinalThreads = limit
		sr.ThreadsTotal += limit
		sr.MaxThreadsTotal += ex.info.MaxThreads
	}
	sr.Execs = ts.stats
	js.stageReports[id] = sr

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

// finishJob assembles the job's report and releases its shuffle state.
func (e *Engine) finishJob(js *jobState) {
	js.done = true
	queueDelay := time.Duration(0)
	if js.firstLaunch >= 0 {
		queueDelay = js.firstLaunch - js.submitAt
	}
	report := &JobReport{
		ID:                js.id,
		Job:               js.spec.Name,
		Policy:            e.opts.Policy.Name(),
		Sched:             e.sched.policy.Name(),
		Tenant:            js.spec.Tenant,
		Priority:          js.spec.Priority,
		SubmittedAt:       js.submitAt,
		QueueDelay:        queueDelay,
		Runtime:           e.k.Now() - js.submitAt,
		Stages:            js.stageReports,
		DiskReadBytes:     js.diskReadB,
		DiskWriteBytes:    js.diskWriteB,
		NetBytes:          js.netB,
		LostExecutors:     js.lostExecs,
		ResubmittedStages: js.resubmissions,
		RecoveredBytes:    e.shuffle.recoveredBytes(js.id),
		Suspected:         js.suspected,
		Fenced:            js.fenced,
		FetchRetries:      js.fetchRetries,
		ChecksumFailovers: js.checksumFailovers,
	}
	for _, ex := range e.executors {
		report.Decisions = append(report.Decisions, ex.jobDecisions(js.id))
		report.ThreadLogs = append(report.ThreadLogs, append([]ThreadChange(nil), ex.threadLog...))
	}
	js.report = report
	if e.aud != nil {
		// Before dropJob so the auditor can close out the job's shuffle
		// mirror alongside the registry.
		e.aud.JobFinished(report)
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
	for key := range e.sched.sets {
		if key.job == js.id {
			e.sched.dropSet(key)
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
