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
// logs are kept per job). A stream queued on a device cannot be cancelled, so
// tasks already running become zombies — their remaining I/O and compute
// no-op (see taskContext) and their completions are never reported. A
// restarted executor keeps its ID and node; the driver re-sends the active
// stages so fresh controllers re-bootstrap the MAPE-K loop from cmin.
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
	// curStage labels thread-log entries and crash traces with the stage
	// that last (re)configured the pool.
	curStage int

	limit   int
	running int
	queue   sim.FIFO[*launchMsg]
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
	// decisionsByJob collects retired controllers' decision logs (stage
	// ends and crashes) per job, in chronological order.
	decisionsByJob map[int][]job.Decision

	// threadLog is the pool-size change history, the report's ThreadLogs.
	threadLog []ThreadChange
	// cumBytes is the total bytes the executor's tasks have moved: what the
	// throughput sampler differentiates for the Fig. 12 time series.
	cumBytes int64
	// cumBlockedIO is the cumulative ε across the executor's reported
	// attempts — the numerator the telemetry plane's windowed ζ gauge
	// differentiates.
	cumBlockedIO time.Duration
	totalTasks   int
}

// execMsg is a driver→executor control message (exactly one field set).
type execMsg struct {
	stageStart *stageStartMsg
	stageEnd   *stageEndMsg
	launch     *launchMsg
	fence      *fenceMsg
}

// fenceMsg orders a still-alive executor that the driver declared lost (a
// failure-detector false positive, e.g. after a network partition) to adopt
// a fresh incarnation epoch. Everything the old incarnation still has in
// flight becomes a zombie — its completions are never reported — so the
// driver's requeued copies of those tasks are the only ones that count.
type fenceMsg struct {
	epoch int
}

type stageStartMsg struct {
	job   int
	stage *job.StageSpec
}

// stageEndMsg retires the (job, stage) controller; the executor folds its
// decision log into the per-job archive and relaxes the pool limit if that
// stage's controller was the binding minimum.
type stageEndMsg struct {
	job   int
	stage int
}

// launchMsg carries one task assignment with its input plan. epoch is the
// executor incarnation the driver assigned it to: a message crossing a
// crash or restart in flight is dropped on arrival. Messages come from the
// engine's free list and go back when start has copied them into a context;
// one that never starts — dropped on arrival, or queued when a crash or fence
// empties the queue — leaves the pool, its fetch plan with it, for the GC.
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

// driverMsg is an executor→driver message (exactly one field set; the
// zero value is a wake-up nudge that matches no handler).
type driverMsg struct {
	taskDone  *taskDoneMsg
	threads   *threadsMsg
	execLost  *execLostMsg
	execJoin  *execJoinMsg
	heartbeat *heartbeatMsg
}

// heartbeatMsg is an executor's periodic liveness beacon, carrying its task
// progress and pool size (the paper's executors heartbeat through Spark's
// stock protocol). The driver's failure detector times out on its absence;
// it never drives scheduling directly, so quiet-plan runs are unperturbed.
type heartbeatMsg struct {
	exec      int
	epoch     int
	running   int
	limit     int
	tasksDone int
}

// taskDoneMsg reports one finished attempt. The driver loop returns it to the
// engine's free list after handleTaskDone, which keeps nothing of it.
type taskDoneMsg struct {
	exec    int
	epoch   int
	job     int
	metrics job.TaskMetrics
	err     error
}

// threadsMsg is the paper's ThreadCountUpdate: the executor informs the
// scheduler of its new effective pool size. job/stage identify the stage
// whose controller triggered the change (for trace labelling).
type threadsMsg struct {
	exec    int
	epoch   int
	job     int
	stage   int
	threads int
}

// execLostMsg declares an executor lost. It is posted by the driver's own
// failure detector when the executor's heartbeats time out; epoch is the
// incarnation being declared dead.
type execLostMsg struct {
	exec  int
	epoch int
}

// execJoinMsg notifies the driver that a restarted executor is back.
type execJoinMsg struct {
	exec  int
	epoch int
}

// ThreadChange records one pool-size change for reporting (Fig. 6). A
// crash logs a change to 0 threads; the restart's fresh controller logs the
// climb restarting at cmin.
type ThreadChange struct {
	At      time.Duration
	Stage   int
	Threads int
}

func newExecutor(eng *Engine, id int, node *cluster.Node, policy job.Policy) *Executor {
	info := job.ExecutorInfo{
		ID:         id,
		Node:       node.ID,
		MaxThreads: node.CPU.Spec().VirtualCores,
	}
	return &Executor{
		id:             id,
		node:           node,
		eng:            eng,
		k:              eng.kernelOf(node.ID),
		shard:          eng.shardFor(node.ID),
		info:           info,
		policy:         policy,
		inbox:          sim.NewMailbox[execMsg](eng.kernelOf(node.ID)),
		curStage:       -1,
		decisionsByJob: make(map[int][]job.Decision),
		limit:          info.MaxThreads,
		alive:          true,
	}
}

// ID returns the executor's ID.
func (ex *Executor) ID() int { return ex.id }

// Node returns the node the executor runs on.
func (ex *Executor) Node() *cluster.Node { return ex.node }

// Threads returns the current pool limit.
func (ex *Executor) Threads() int { return ex.limit }

// Alive reports whether the executor is currently up.
func (ex *Executor) Alive() bool { return ex.alive }

// Restarts returns how many times the executor came back after a crash.
func (ex *Executor) Restarts() int { return ex.restarts }

// Decisions returns every controller decision this executor has logged,
// across all jobs and incarnations, grouped by job ID.
func (ex *Executor) Decisions() []job.Decision {
	jobs := make([]int, 0, len(ex.decisionsByJob))
	for id := range ex.decisionsByJob {
		jobs = append(jobs, id)
	}
	for _, sc := range ex.active {
		if _, ok := ex.decisionsByJob[sc.key.job]; !ok {
			jobs = append(jobs, sc.key.job)
		}
	}
	slices.Sort(jobs)
	var out []job.Decision
	seen := make(map[int]bool, len(jobs))
	for _, id := range jobs {
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, ex.jobDecisions(id)...)
	}
	return out
}

// jobDecisions returns the decision logs of one job's controllers on this
// executor: retired ones first (chronological), then any still live.
func (ex *Executor) jobDecisions(jobID int) []job.Decision {
	out := append([]job.Decision(nil), ex.decisionsByJob[jobID]...)
	for _, sc := range ex.active {
		if sc.key.job == jobID {
			out = append(out, sc.ctrl.Decisions()...)
		}
	}
	return out
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
		switch {
		case msg.stageStart != nil:
			if !ex.alive {
				continue // a dead executor ignores stage broadcasts
			}
			ex.stageStart(msg.stageStart)
		case msg.stageEnd != nil:
			ex.stageEnd(msg.stageEnd)
		case msg.launch != nil:
			if !ex.alive || msg.launch.epoch != ex.epoch {
				continue // assignment crossed a crash in flight
			}
			if ex.running < ex.limit {
				ex.start(msg.launch)
			} else {
				ex.queue.Push(msg.launch)
			}
		case msg.fence != nil:
			if !ex.alive || msg.fence.epoch <= ex.epoch {
				continue // a crash got there first, or a duplicate order
			}
			ex.fence(msg.fence.epoch)
		}
	}
}

// retireControllers archives every active controller's decision log per job
// and clears the controller tables — the shared teardown of crashes, fences
// and decommissions. Fresh controllers arrive with re-sent stages on rejoin.
func (ex *Executor) retireControllers() {
	for _, sc := range ex.active {
		ex.decisionsByJob[sc.key.job] = append(ex.decisionsByJob[sc.key.job], sc.ctrl.Decisions()...)
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
	ex.queue = sim.FIFO[*launchMsg]{} // the queued launches leave the pool
	ex.retireControllers()
	ex.threadLog = append(ex.threadLog, ThreadChange{At: ex.k.Now(), Stage: ex.curStage, Threads: 0})
}

// fence makes a still-alive executor that was declared lost adopt a fresh
// incarnation: its queue is dropped, its controllers retire, and every task
// still running becomes a zombie whose completion is never reported — the
// in-flight work the driver already requeued must not be double-counted.
// The new incarnation then rejoins through the normal execJoin path.
func (ex *Executor) fence(epoch int) {
	ex.epoch = epoch
	ex.queue = sim.FIFO[*launchMsg]{} // the queued launches leave the pool
	ex.retireControllers()
	ex.threadLog = append(ex.threadLog, ThreadChange{At: ex.k.Now(), Stage: ex.curStage, Threads: 0})
	ex.eng.trace(TraceEvent{Type: TraceExecFence, Job: -1, Stage: ex.curStage, Task: -1, Exec: ex.id,
		Detail: fmt.Sprintf("epoch %d fenced, rejoining as %d", epoch-1, epoch)})
	ex.eng.sendDriver(ex.shard, driverMsg{
		execJoin: &execJoinMsg{exec: ex.id, epoch: ex.epoch},
	})
}

// stageStart installs a fresh controller for the (job, stage) and applies
// its initial choice to the shared pool. The driver updates its slot table
// with the same min-over-active-stages rule, so no ThreadCountUpdate is
// needed here.
func (ex *Executor) stageStart(m *stageStartMsg) {
	key := setKey{job: m.job, stage: m.stage.ID}
	i, dup := ex.find(key)
	if dup {
		// A duplicate broadcast (stage re-sent around a crash/restart
		// race): retire the old incarnation's log and start over.
		ex.decisionsByJob[key.job] = append(ex.decisionsByJob[key.job], ex.active[i].ctrl.Decisions()...)
		ex.active = slices.Delete(ex.active, i, i+1)
	}
	ctrl := ex.policy.NewController(ex.info)
	ex.active = slices.Insert(ex.active, i, stageCtrl{key: key, ctrl: ctrl, choice: ctrl.StageStart(m.stage.Meta())})
	ex.curStage = m.stage.ID
	if n, ok := ex.effectiveChoice(); ok {
		ex.setLimit(n, m.stage.ID)
	}
	ex.drain()
}

// stageEnd retires the (job, stage) controller. If its choice was the
// binding minimum, the pool relaxes and the driver is told — it cannot
// derive the surviving controllers' choices itself.
func (ex *Executor) stageEnd(m *stageEndMsg) {
	i, ok := ex.find(setKey{job: m.job, stage: m.stage})
	if !ok {
		return // already retired (e.g. by a crash)
	}
	ex.decisionsByJob[m.job] = append(ex.decisionsByJob[m.job], ex.active[i].ctrl.Decisions()...)
	ex.active = slices.Delete(ex.active, i, i+1)
	if n, ok := ex.effectiveChoice(); ok && ex.applyAndNotify(n, m.job, m.stage) {
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
	ex.eng.sendDriver(ex.shard, driverMsg{
		threads: &threadsMsg{exec: ex.id, epoch: ex.epoch, job: jobID, stage: stage, threads: n},
	})
	return true
}

func (ex *Executor) setLimit(n, stage int) {
	if n < 1 {
		n = 1
	}
	if n == ex.limit && len(ex.threadLog) > 0 {
		return
	}
	ex.limit = n
	ex.curStage = stage
	ex.threadLog = append(ex.threadLog, ThreadChange{At: ex.k.Now(), Stage: stage, Threads: n})
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
	ex.eng.spares.launches.put(lm, ex.eng.recycle) // the context holds the copy
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
		// requeued this task at loss detection; report nothing.
		ex.zombies++
		return
	}
	ex.totalTasks++
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
	m := ex.eng.spares.dones.get(ex.eng.recycle)
	*m = taskDoneMsg{exec: ex.id, epoch: ex.epoch, job: key.job, metrics: tm, err: err}
	ex.eng.sendDriver(ex.shard, driverMsg{taskDone: m})
	ex.drain()
}

// drain starts queued tasks while slots are free.
func (ex *Executor) drain() {
	for ex.running < ex.limit && ex.queue.Len() > 0 {
		ex.start(ex.queue.Pop())
	}
}
