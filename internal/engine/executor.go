package engine

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"sae/internal/cluster"
	"sae/internal/dfs"
	"sae/internal/engine/job"
	"sae/internal/sim"
)

// Executor runs tasks on one node with a resizable worker pool, mirroring
// the paper's drop-in Spark executor replacement. Each active (job, stage)
// gets its own MAPE-K controller; the pool limit applied locally (the
// paper's setMaximumPoolSize) is the minimum over the active controllers'
// choices, so one saturated stage's clamp protects the shared disk even
// while a CPU-bound stage of another job would tolerate more threads. When
// the effective limit changes in a way the driver cannot derive itself, the
// executor notifies it so the slot table follows (the paper's messaging
// protocol extension). Tasks assigned beyond the current limit — e.g. ones
// already in flight from the driver when the pool shrank — wait in a local
// queue, exactly the integrity concern §5.3 discusses.
//
// Executors can crash (chaos schedules): a crash bumps the incarnation
// epoch, drops the local queue and retires every controller (their decision
// logs are kept per job, by slice header). A stream queued on a device cannot
// be cancelled, so tasks already running become zombies — their remaining
// I/O and compute no-op (see taskContext) and their completions are never
// reported. A restarted executor keeps its ID and node; the driver re-sends
// the active stages so fresh controllers re-bootstrap the MAPE-K loop from
// cmin.
type Executor struct {
	id   int
	node *cluster.Node
	eng  *Engine
	// k is the kernel owning this executor's events — the node's shard
	// kernel at Shards > 1, the engine kernel otherwise; shard is its
	// index. All executor-local work (control loop, tasks, heartbeats,
	// thread-log timestamps) runs on k.
	k      *sim.Kernel
	shard  int
	info   job.ExecutorInfo
	policy job.Policy

	inbox *sim.Mailbox[execMsg]
	proc  sim.Proc // the control loop process (Step)

	// active holds one controller per active (job, stage) with its current
	// choice, sorted by (job, stage) for deterministic iteration.
	active []stageCtrl
	// curStage labels crash and fence traces with the stage that last
	// (re)configured the pool.
	curStage int

	limit   int
	running int
	queue   sim.FIFO[launchMsg]
	// freeTasks recycles task contexts: a task returns its own when it
	// completes, so the list never holds state a zombie is still using. An
	// empty list takes from the engine's spares, and giveBackSpares gathers
	// it there at the end of the run. zombies counts the completions dropped
	// as an earlier incarnation's.
	freeTasks *taskContext
	zombies   int

	// alive is false between a crash and the matching restart; epoch
	// counts crashes, so tasks launched before a crash can be told apart
	// from the current incarnation's.
	alive    bool
	epoch    int
	restarts int
	// retired[job] holds the decision logs of the job's retired controllers
	// (stage ends, crashes, fences, duplicate stage starts), in retirement
	// order, each by its slice header: a retired controller logs nothing
	// more. Wait sizes it to the submitted jobs.
	retired [][][]job.Decision

	// cumBytes is the total bytes the executor's tasks have moved: what the
	// throughput sampler differentiates for the Fig. 12 time series.
	cumBytes int64
	// cumBlockedIO is the cumulative ε across the executor's reported
	// attempts — the numerator the telemetry plane's windowed ζ gauge
	// differentiates.
	cumBlockedIO time.Duration
}

// execMsg is a driver→executor control message, held by value in the
// executor's mailbox arrays. A launch sets every field, a stage start or end
// job and stage, a fence epoch.
type execMsg struct {
	kind execKind
	launchMsg
}

type execKind uint8

const (
	execLaunch execKind = iota
	execStageStart
	execStageEnd // retires the (job, stage) controller
	execFence    // a live incarnation the driver declared lost adopts epoch
)

// launchMsg carries one task assignment with its input plan. epoch is the
// executor incarnation the driver assigned it to: a message crossing a
// crash or restart in flight is dropped on arrival. start copies it into the
// task's context; one that never starts — dropped on arrival, or queued when
// a crash or fence empties the queue — takes its fetch plan with it to the GC.
type launchMsg struct {
	job        int
	stage      *job.StageSpec
	index      int
	attempt    int
	epoch      int
	blocks     []dfs.Block
	segments   []segment
	inputTotal int64
}

// driverMsg is an executor→driver message, held by value in the driver's
// mailbox arrays. Every kind but the wake-up nudge sets exec and epoch, the
// incarnation it speaks for.
type driverMsg struct {
	kind    driverKind
	exec    int
	epoch   int
	job     int             // driverTaskDone, driverThreads
	stage   int             // driverThreads
	threads int             // driverThreads
	metrics job.TaskMetrics // driverTaskDone
	err     error           // driverTaskDone
}

type driverKind uint8

const (
	driverWake      driverKind = iota // matches no handler
	driverTaskDone                    // one finished attempt
	driverThreads                     // the paper's ThreadCountUpdate: the pool's new size
	driverExecLost                    // the failure detector's verdict on incarnation epoch
	driverExecJoin                    // a restarted or fenced executor is back
	driverHeartbeat                   // a liveness beacon, read by the failure detector only
)

func newExecutor(eng *Engine, id int, node *cluster.Node, policy job.Policy) *Executor {
	info := job.ExecutorInfo{
		ID:         id,
		Node:       node.ID,
		MaxThreads: node.CPU.Spec().VirtualCores,
	}
	return &Executor{
		id:       id,
		node:     node,
		eng:      eng,
		k:        eng.kernelOf(node.ID),
		shard:    eng.shardFor(node.ID),
		info:     info,
		policy:   policy,
		inbox:    sim.NewMailbox[execMsg](eng.kernelOf(node.ID)),
		curStage: -1,
		limit:    info.MaxThreads,
		alive:    true,
	}
}

// Alive reports whether the executor is currently up.
func (ex *Executor) Alive() bool { return ex.alive }

// Restarts returns how many times the executor came back after a crash.
func (ex *Executor) Restarts() int { return ex.restarts }

// jobDecisions concatenates the decision logs of one job's controllers on
// this executor into one exact-size row: retired ones first (chronological),
// then any still live. A job with no decisions gets nil.
func (ex *Executor) jobDecisions(jobID int) []job.Decision {
	n := 0
	for _, ds := range ex.retired[jobID] {
		n += len(ds)
	}
	for _, sc := range ex.active {
		if sc.key.job == jobID {
			n += len(sc.ctrl.Decisions())
		}
	}
	if n == 0 {
		return nil
	}
	out, i := make([]job.Decision, n), 0
	for _, ds := range ex.retired[jobID] {
		i += copy(out[i:], ds)
	}
	for _, sc := range ex.active {
		if sc.key.job == jobID {
			i += copy(out[i:], sc.ctrl.Decisions())
		}
	}
	return out
}

// retire files a retiring controller's decision log under its job.
func (ex *Executor) retire(sc *stageCtrl) {
	if ds := sc.ctrl.Decisions(); len(ds) > 0 {
		ex.retired[sc.key.job] = append(ex.retired[sc.key.job], ds)
	}
}

// Step implements sim.Stepper, the executor's control loop process: it handles
// the messages that have arrived and waits for the next.
func (ex *Executor) Step() {
	for {
		msg, ok := ex.inbox.TryRecv()
		if !ok {
			ex.inbox.StartRecv(&ex.proc)
			return
		}
		switch msg.kind {
		case execStageStart:
			if !ex.alive {
				continue // a dead executor ignores stage broadcasts
			}
			ex.stageStart(msg.job, msg.stage)
		case execStageEnd:
			ex.stageEnd(msg.job, msg.stage.ID)
		case execLaunch:
			if !ex.alive || msg.epoch != ex.epoch {
				continue // assignment crossed a crash in flight
			}
			if ex.running < ex.limit {
				ex.start(&msg.launchMsg)
			} else {
				ex.queue.Push(msg.launchMsg)
			}
		case execFence:
			if !ex.alive || msg.epoch <= ex.epoch {
				continue // a crash got there first, or a duplicate order
			}
			ex.fence(msg.epoch)
		}
	}
}

// retireControllers archives every active controller's decision log per job
// and clears the controller tables — the shared teardown of crashes, fences
// and decommissions. Fresh controllers arrive with re-sent stages on rejoin.
func (ex *Executor) retireControllers() {
	for i := range ex.active {
		ex.retire(&ex.active[i])
	}
	ex.active = nil
}

// stageCtrl is one active (job, stage): its controller and the pool size
// the controller last chose.
type stageCtrl struct {
	key    setKey
	ctrl   job.Controller
	choice int
}

// find locates key in the sorted active list, or the index to insert it at.
func (ex *Executor) find(key setKey) (int, bool) {
	return slices.BinarySearchFunc(ex.active, key, func(sc stageCtrl, key setKey) int {
		return cmp.Or(cmp.Compare(sc.key.job, key.job), cmp.Compare(sc.key.stage, key.stage))
	})
}

// shutdown stops the executor process at the current instant: the
// incarnation epoch bumps (tasks still running become zombies and in-flight
// control messages go stale on arrival), the local queue drops, and the
// controllers retire. Shared by chaos crashes and graceful decommission —
// the difference between the two is entirely driver-side.
func (ex *Executor) shutdown() {
	ex.alive = false
	ex.epoch++
	ex.queue = sim.FIFO[launchMsg]{}
	ex.retireControllers()
}

// fence makes a still-alive executor that was declared lost adopt a fresh
// incarnation: its queue is dropped, its controllers retire, and every task
// still running becomes a zombie whose completion is never reported — the
// in-flight work the driver already requeued must not be double-counted.
// The new incarnation then rejoins through the normal execJoin path.
func (ex *Executor) fence(epoch int) {
	ex.epoch = epoch
	ex.queue = sim.FIFO[launchMsg]{}
	ex.retireControllers()
	ex.eng.trace(TraceEvent{Type: TraceExecFence, Job: -1, Stage: ex.curStage, Task: -1, Exec: ex.id,
		Detail: fmt.Sprintf("epoch %d fenced, rejoining as %d", epoch-1, epoch)})
	ex.eng.sendDriver(ex.shard, driverMsg{kind: driverExecJoin, exec: ex.id, epoch: ex.epoch})
}

// stageStart installs a fresh controller for the (job, stage) and applies
// its initial choice to the shared pool. The driver updates its slot table
// with the same min-over-active-stages rule, so no ThreadCountUpdate is
// needed here.
func (ex *Executor) stageStart(jobID int, stage *job.StageSpec) {
	key := setKey{job: jobID, stage: stage.ID}
	i, dup := ex.find(key)
	if dup {
		// A duplicate broadcast (stage re-sent around a crash/restart
		// race): retire the old incarnation's log and start over.
		ex.retire(&ex.active[i])
		ex.active = slices.Delete(ex.active, i, i+1)
	}
	ctrl := ex.policy.NewController(ex.info)
	ex.active = slices.Insert(ex.active, i, stageCtrl{key: key, ctrl: ctrl, choice: ctrl.StageStart(stage.Meta())})
	ex.curStage = stage.ID
	if n, ok := ex.effectiveChoice(); ok {
		ex.setLimit(n, stage.ID)
	}
	ex.drain()
}

// stageEnd retires the (job, stage) controller. If its choice was the
// binding minimum, the pool relaxes and the driver is told — it cannot
// derive the surviving controllers' choices itself.
func (ex *Executor) stageEnd(jobID, stage int) {
	i, ok := ex.find(setKey{job: jobID, stage: stage})
	if !ok {
		return // already retired (e.g. by a crash)
	}
	ex.retire(&ex.active[i])
	ex.active = slices.Delete(ex.active, i, i+1)
	if n, ok := ex.effectiveChoice(); ok && ex.applyAndNotify(n, jobID, stage) {
		ex.drain()
	}
}

// effectiveChoice returns the minimum over active controllers' choices.
// With no active stage it reports ok=false: the pool keeps its last limit
// (there is nothing to run anyway).
func (ex *Executor) effectiveChoice() (int, bool) {
	if len(ex.active) == 0 {
		return 0, false
	}
	n := ex.active[0].choice
	for _, sc := range ex.active[1:] {
		n = min(n, sc.choice)
	}
	return n, true
}

// applyAndNotify applies a new effective limit and, if it actually changed,
// sends the driver a ThreadCountUpdate. Returns whether it changed.
func (ex *Executor) applyAndNotify(n, jobID, stage int) bool {
	if n < 1 {
		n = 1
	}
	if n == ex.limit {
		return false
	}
	ex.setLimit(n, stage)
	ex.eng.sendDriver(ex.shard, driverMsg{kind: driverThreads, exec: ex.id, epoch: ex.epoch, job: jobID, stage: stage, threads: n})
	return true
}

func (ex *Executor) setLimit(n, stage int) {
	if n < 1 {
		n = 1
	}
	if n == ex.limit {
		return
	}
	ex.limit = n
	ex.curStage = stage
}

// start launches one task as its own stackless process, stepping the stage's
// custom Work if it brings one and the analytic cost loop otherwise.
func (ex *Executor) start(lm *launchMsg) {
	ex.running++
	tc := ex.freeTasks
	if tc != nil {
		ex.freeTasks = tc.free
	} else {
		tc = ex.eng.spares.context()
	}
	*tc = taskContext{
		eng: ex.eng, ex: ex, launchMsg: *lm, fetchBuf: lm.segments,
		faultAt: -1, blockSrc: -1, do: (*taskContext).launch,
		tm: job.TaskMetrics{Stage: lm.stage.ID, Index: lm.index, Local: true},
	}
	if tc.stage.Work != nil {
		tc.work = tc.stage.Work(tc.index)
	} else {
		tc.plan.Begin(tc)
	}
	ex.k.GoStepper(&tc.proc, "task", tc)
}

// taskDone ends one task, on the task's own process: the context goes back
// on the free list, and unless the task is a zombie its metrics feed the
// stage's controller and its completion is reported to the driver.
func (ex *Executor) taskDone(tc *taskContext, err error) {
	ex.running--
	key, epoch, tm := setKey{job: tc.job, stage: tc.stage.ID}, tc.epoch, tc.tm
	tc.free, ex.freeTasks = ex.freeTasks, tc
	if ex.epoch != epoch {
		// Zombie of a crashed incarnation: the driver already
		// requeued this task at loss detection; report nothing. Its slot
		// frees all the same, so launches of the new incarnation queued
		// behind it start now.
		ex.zombies++
		ex.drain()
		return
	}
	ex.cumBytes += tm.BytesMoved
	ex.cumBlockedIO += tm.BlockedIO

	// Failed attempts carry no usable monitor signal; only
	// successful completions of a stage with a live controller feed
	// the MAPE-K loop (recovery-set tasks run under other stages'
	// settings, as before the DAG split).
	if err == nil {
		if i, ok := ex.find(key); ok {
			if threads, changed := ex.active[i].ctrl.TaskDone(tm); changed {
				ex.active[i].choice = threads
				if n, ok := ex.effectiveChoice(); ok {
					ex.applyAndNotify(n, key.job, key.stage)
				}
			}
		}
	}
	ex.eng.sendDriver(ex.shard, driverMsg{kind: driverTaskDone, exec: ex.id, epoch: ex.epoch, job: key.job, metrics: tm, err: err})
	ex.drain()
}

// drain starts queued tasks while slots are free.
func (ex *Executor) drain() {
	for ex.running < ex.limit && ex.queue.Len() > 0 {
		lm := ex.queue.Pop()
		ex.start(&lm)
	}
}
