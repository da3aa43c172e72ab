package engine

import (
	"fmt"
	"time"

	"sae/internal/dfs"
	"sae/internal/engine/job"
	"sae/internal/psres"
	"sae/internal/sim"
)

// taskContext is one running task: it carries the task's operations out
// against the owning node's simulated devices and accounts the monitor's raw
// inputs. To the task's operation generator it is the job.TaskContext.
//
// ε accounting: each disk operation contributes its elapsed time scaled by
// the device's contention factor at issue (device.DiskSpec.Overload). At or
// below the device's best operating point, readahead and command queuing
// hide service latency from the application — read() returns from cache —
// so epoll-style blocked time is the contention-induced share of the wait.
// This is what makes ε grow steeply with thread count on saturated HDDs
// (Fig. 7) while staying near zero on SSDs (§6.3) and on CPU-heavy stages.
//
// Fault paths: a stream queued on a device cannot be cancelled, so a task
// whose executor crashed keeps running as a zombie — every subsequent device
// charge no-ops (failed is set to errExecutorLost) and it fast-forwards to
// completion, where the executor drops its report. Chaos plans additionally
// inject transient I/O faults (the task aborts partway through its input)
// and fetch failures; stale fetch plans against lost map output abort with
// fetchFailedError, the driver's lineage-recovery signal.
//
// The task is a stackless sim process, the context itself its sim.Stepper.
// Everything it waits for — the launch, then each job.Op its generator yields:
// job.AnalyticOps, or the stage's custom Work — is an operation: a chain of
// steps, each running from one device wait to the next (advance). Step carries
// the operations out one after another and returns to the kernel loop at every
// wait. A step reads what it depends on (the executor's epoch and concurrency,
// partition windows, the shuffle registry, replica health) when it runs, never
// ahead.
//
// Contexts are recycled through the owning executor's free list when the
// task — zombie or not — completes; until then the state is the task's own.
type taskContext struct {
	eng *Engine
	ex  *Executor
	// proc is the process the task's waits wake. Its operations come from
	// work, the stage's custom generator, or — work nil — from plan.
	proc sim.Proc
	plan job.AnalyticOps
	work job.Ops
	free *taskContext // the executor's free-list link

	// The assignment: epoch is the executor incarnation that launched this
	// task (a crash or fence drops the executor's queue, so it is the
	// current one at every start); when the executor has moved on from it
	// the task is a zombie. blocks and segments hold what is left of the
	// input plan, the first of each partially consumed.
	launchMsg
	fetchBuf []segment // segments as launched: finish returns the buffer
	blockOff int64
	// blockSrc is the verified replica the current block streams from
	// (-1 = not yet picked for blocks[0]).
	blockSrc int
	segOff   int64

	// failed aborts all further device activity once set.
	failed error
	// faultAt, if ≥ 0, injects a transient I/O fault once the bytes moved
	// cross it.
	faultAt int64
	// fetchFault injects one transient shuffle-fetch failure.
	fetchFault bool

	// The operation in flight. do is its next step, nil once it is over;
	// arg and seconds are its argument, read its result (OpReadInput's bytes
	// so far, of budget arg).
	do      func(*taskContext) (parked bool)
	arg     int64
	seconds float64
	read    int64
	// A pull in flight: n bytes from node src, then the step that follows.
	n    int64
	src  int
	then func(*taskContext) bool
	// bad holds the replicas pickBlockSrc has ruled out for blocks[0]; try
	// counts fetchReady's attempts at segments[0].
	bad map[int]bool
	try int
	out *dfs.File // OpWriteOutput's file, between its two halves
	// ov and t0 are the contention factor and the instant at which the disk
	// wait in flight was issued; advance settles its ε at the next resume.
	ov float64
	t0 time.Duration

	// Accounting: tm is the task's report, filled in as it runs — its
	// device byte counts mirror every charge the task issues, so the driver
	// attributes traffic to the owning job without cluster-global counter
	// deltas that double-count under concurrency — disk0 the node disk's
	// statistics at launch, shuffleOut the map output to register.
	tm         job.TaskMetrics
	disk0      psres.Stats
	shuffleOut int64
}

var _ job.TaskContext = (*taskContext)(nil)

func (tc *taskContext) Node() int             { return tc.ex.node.ID }
func (tc *taskContext) Executor() int         { return tc.ex.id }
func (tc *taskContext) Stage() *job.StageSpec { return tc.stage }
func (tc *taskContext) Index() int            { return tc.index }
func (tc *taskContext) InputBytes() int64     { return tc.inputTotal }
func (tc *taskContext) Concurrency() int      { return tc.ex.running }
func (tc *taskContext) VirtualCores() int     { return tc.ex.node.CPU.Spec().VirtualCores }

// aborted reports (and latches) whether the task must stop charging
// devices: either a fault struck or its executor crashed underneath it.
func (tc *taskContext) aborted() bool {
	if tc.failed != nil {
		return true
	}
	if tc.ex.epoch != tc.epoch {
		tc.failed = errExecutorLost
		return true
	}
	return false
}

// advance runs the operation in flight up to its next wait and reports
// whether there is one: true means the task is queued on a device (or a
// timer) that will wake tc.proc, and Step must return; false means the
// operation is over. A step that names no successor in do is the last.
func (tc *taskContext) advance() (parked bool) {
	for {
		if tc.ov != 0 {
			// The disk wait just over contributes its elapsed time, scaled
			// by the contention factor at issue, to ε.
			tc.tm.BlockedIO += time.Duration(float64(tc.proc.Now()-tc.t0) * tc.ov)
			tc.ov = 0
		}
		step := tc.do
		if step == nil {
			return false
		}
		tc.do = nil
		if step(tc) {
			return true
		}
	}
}

// issue makes op the operation in flight; advance carries it out.
// An empty operation, or any on an aborted task, is over at once.
func (tc *taskContext) issue(op job.Op) {
	tc.do, tc.arg, tc.seconds, tc.read = nil, op.Bytes, op.Seconds, 0
	if (op.Bytes > 0 || op.Seconds > 0) && !tc.aborted() {
		tc.do = firstStep[op.Kind]
	}
}

var firstStep = [...]func(*taskContext) bool{
	job.OpReadInput:    (*taskContext).nextBlock,
	job.OpCompute:      (*taskContext).compute,
	job.OpSpill:        (*taskContext).spill,
	job.OpWriteShuffle: (*taskContext).writeShuffle,
	job.OpWriteOutput:  (*taskContext).writeOutput,
}

// Step implements sim.Stepper: it carries the generator's operations out one
// after another, returning to the kernel loop at every wait, and finishes the
// task after the last.
func (tc *taskContext) Step() {
	for !tc.advance() {
		var op job.Op
		if tc.work != nil {
			op = tc.work.Next(tc, tc.read)
		} else {
			op = tc.plan.Next(tc, tc.read)
		}
		if op.Kind == job.OpDone {
			tc.finish(op.Err)
			return // tc is back on the free list, perhaps already relaunched
		}
		tc.issue(op)
	}
}

// startDisk queues a read or write of bytes on node's disk, noting what the
// wait's ε settlement needs. Like every wait it reports whether the task is
// now parked; an empty request queues nothing.
func (tc *taskContext) startDisk(node int, bytes int64, write bool) bool {
	d := tc.eng.cluster.Node(node).Disk
	tc.ov, tc.t0 = d.OverloadAhead(), tc.proc.Now()
	if write {
		tc.tm.DiskWriteBytes += bytes
		return d.StartWrite(&tc.proc, bytes)
	}
	tc.tm.DiskReadBytes += bytes
	return d.StartRead(&tc.proc, bytes)
}

// pull reads bytes from src's disk and, when src is another node, moves them
// across the network to the task's; then runs once both are done.
func (tc *taskContext) pull(src int, bytes int64, then func(*taskContext) bool) bool {
	tc.src, tc.n, tc.then, tc.do = src, bytes, then, (*taskContext).pulled
	return tc.startDisk(src, bytes, false)
}

// pulled is pull's network half.
func (tc *taskContext) pulled() bool {
	tc.do = tc.then
	if tc.src == tc.ex.node.ID {
		return false
	}
	tc.tm.NetBytes += tc.n
	return tc.eng.cluster.StartTransfer(&tc.proc, tc.src, tc.ex.node.ID, tc.n)
}

// nextBlock is the head of OpReadInput's loop over the task's DFS blocks: the
// split first, then the shuffle fetch plan.
func (tc *taskContext) nextBlock() bool {
	switch {
	case tc.read >= tc.arg || len(tc.blocks) == 0 || tc.aborted():
		return tc.nextSegment()
	case tc.blockSrc < 0:
		return tc.pickBlockSrc()
	}
	return tc.readBlock()
}

// pickBlockSrc selects the replica the current block will stream from:
// nearest live replica first (local, then ascending node distance), falling
// over to the next-closest when a replica's checksum does not verify. A
// corrupted replica is only discovered after pulling the whole block, so
// the wasted read (and transfer, for remote replicas) is charged to the
// devices without counting toward task input. It fails only when every
// replica is unreachable or corrupt — a permanent error that rides the
// normal task-failure path.
func (tc *taskContext) pickBlockSrc() bool {
	e, b, reader := tc.eng, tc.blocks[0], tc.ex.node.ID
	for {
		src, ok := e.fs.PickReplica(b, reader, tc.bad)
		switch {
		case !ok:
			tc.failed = fmt.Errorf("block %d: all %d replicas unreachable or corrupt", b.Index, len(b.Replicas))
			return tc.readDone()
		case src != reader && e.partitionedNow(tc.ex.id):
			// The reader's own node is inside a partition window: every
			// remote replica is out of reach from this side.
			tc.ruleOut(src)
		case e.fs.ReadSum(b, src) != b.Sum:
			return tc.pull(src, b.Size, (*taskContext).failedOver)
		default:
			tc.blockSrc, tc.bad = src, nil
			return tc.readBlock()
		}
	}
}

// failedOver resumes pickBlockSrc after a corrupt replica's wasted pull.
func (tc *taskContext) failedOver() bool {
	tc.tm.ChecksumFailovers++
	tc.eng.trace(TraceEvent{Type: TraceChecksum, Job: tc.job, Stage: tc.stage.ID, Task: tc.index, Exec: tc.ex.id,
		Detail: fmt.Sprintf("replica on node %d failed checksum", tc.src)})
	tc.ruleOut(tc.src)
	return tc.pickBlockSrc()
}

// ruleOut marks a replica of the current block as not to be picked again.
func (tc *taskContext) ruleOut(src int) {
	if tc.bad == nil {
		tc.bad = make(map[int]bool) // most blocks never fail over
	}
	tc.bad[src] = true
}

// readBlock pulls the next stretch of the current block from its replica.
func (tc *taskContext) readBlock() bool {
	if tc.blockSrc != tc.ex.node.ID {
		tc.tm.Local = false
	}
	n := min(tc.blocks[0].Size-tc.blockOff, tc.arg-tc.read)
	return tc.pull(tc.blockSrc, n, (*taskContext).gotBlock)
}

func (tc *taskContext) gotBlock() bool {
	tc.read += tc.n
	tc.blockOff += tc.n
	if tc.blockOff >= tc.blocks[0].Size {
		tc.blocks, tc.blockOff, tc.blockSrc = tc.blocks[1:], 0, -1
	}
	if tc.injectFault(tc.read) {
		return tc.readDone()
	}
	return tc.nextBlock()
}

// nextSegment is the head of OpReadInput's loop over the shuffle fetch plan,
// which follows the blocks.
func (tc *taskContext) nextSegment() bool {
	switch {
	case tc.read >= tc.arg || len(tc.segments) == 0 || tc.aborted():
		return tc.readDone()
	case tc.segOff == 0:
		// Opening a segment: the fetch may fail transiently (chaos
		// injection or a partition window) and is retried with bounded
		// exponential backoff before surfacing.
		tc.try = 0
		return tc.fetchReady()
	case !tc.eng.shuffle.segmentValid(tc.segments[0]):
		// The plan predates a node loss mid-segment: the map output
		// this segment points at is gone (FetchFailedException).
		tc.failed = &fetchFailedError{node: tc.segments[0].node}
		return tc.readDone()
	}
	return tc.readSegment()
}

// fetchReady gates the opening of one shuffle segment: a fetch drops while
// either endpoint is partitioned or when the chaos plan injects a transient
// failure, and dropped fetches are retried with bounded exponential backoff
// (Spark's spark.shuffle.io.maxRetries / retryWait) — each backoff is a wait,
// after which the step runs again as try tc.try. Exhausting the budget
// surfaces errInjectedFetch for injected transients (charged to the
// attempt) or fetchFailedError for partitions (requeued without charge). A
// segment whose map output is gone fails immediately — no retry can bring
// it back; only lineage recovery can.
func (tc *taskContext) fetchReady() bool {
	e, s, try := tc.eng, tc.segments[0], tc.try
	if tc.aborted() {
		return tc.readDone()
	}
	if !e.shuffle.segmentValid(s) {
		tc.failed = &fetchFailedError{node: s.node}
		return tc.readDone()
	}
	if f := e.opts.Faults; try > 0 && tc.fetchFault && f != nil {
		// Transients may clear between tries: re-roll this try.
		tc.fetchFault = f.FetchFaultTry(tc.stage.ID, tc.index, tc.attempt, try, e.cfg.maxFailures-1)
	}
	partitioned := e.partitionedNow(tc.ex.id) || e.partitionedNow(s.node)
	if !partitioned && !tc.fetchFault {
		return tc.readSegment()
	}
	if try >= e.cfg.fetchRetries {
		if tc.fetchFault {
			tc.fetchFault, tc.failed = false, errInjectedFetch
		} else {
			tc.failed = &fetchFailedError{node: s.node}
		}
		return tc.readDone()
	}
	tc.tm.FetchRetries++
	tc.try, tc.do = try+1, (*taskContext).fetchReady
	tc.proc.WakeAfter(e.cfg.fetchRetryWait << try)
	return true
}

// readSegment pulls the next stretch of the open segment. Shuffle fetch: the
// map output is read from the source node's disk; remote segments
// additionally cross the network (Spark's shuffle block fetch).
func (tc *taskContext) readSegment() bool {
	s := tc.segments[0]
	return tc.pull(s.node, min(s.bytes-tc.segOff, tc.arg-tc.read), (*taskContext).gotSegment)
}

func (tc *taskContext) gotSegment() bool {
	tc.read += tc.n
	tc.segOff += tc.n
	if tc.segOff >= tc.segments[0].bytes {
		tc.segments, tc.segOff = tc.segments[1:], 0
	}
	if tc.injectFault(tc.read) {
		return tc.readDone()
	}
	return tc.nextSegment()
}

// readDone ends OpReadInput, successful or not.
func (tc *taskContext) readDone() bool {
	tc.tm.BytesMoved += tc.read
	return false
}

// injectFault fires the scheduled transient I/O fault once the task's
// cumulative input crosses the fault point.
func (tc *taskContext) injectFault(pendingRead int64) bool {
	if tc.faultAt < 0 || tc.tm.BytesMoved+pendingRead < tc.faultAt {
		return false
	}
	tc.faultAt = -1
	tc.failed = errInjectedIO
	return true
}

// compute is OpCompute. Memory pressure inflates the charge with the
// executor's current concurrency (see job.StageSpec.MemPressure).
func (tc *taskContext) compute() bool {
	seconds := tc.seconds
	if mp := tc.stage.MemPressure; mp > 0 {
		vcores := tc.ex.node.CPU.Spec().VirtualCores
		if vcores > 1 {
			seconds *= 1 + mp*float64(tc.ex.running-1)/float64(vcores-1)
		}
	}
	return tc.ex.node.CPU.StartCompute(&tc.proc, seconds)
}

func (tc *taskContext) writeShuffle() bool {
	tc.tm.BytesMoved += tc.arg
	tc.shuffleOut += tc.arg
	return tc.startDisk(tc.ex.node.ID, tc.arg, true)
}

func (tc *taskContext) writeOutput() bool {
	if tc.stage.OutputFile == "" {
		return false
	}
	tc.ov, tc.t0 = tc.ex.node.Disk.OverloadAhead(), tc.proc.Now()
	var parked bool
	tc.out, parked = tc.eng.fs.StartWrite(&tc.proc, tc.ex.node.ID, tc.stage.OutputFile, tc.arg)
	tc.do = (*taskContext).wroteOutput
	return parked
}

func (tc *taskContext) wroteOutput() bool {
	tc.eng.fs.FinishWrite(tc.out, tc.ex.node.ID, tc.arg)
	tc.tm.BytesMoved += tc.arg
	// DFS writes charge the writer's local disk (see dfs.FS.Write).
	tc.tm.DiskWriteBytes += tc.arg
	tc.out = nil
	return false
}

// spill is OpSpill. Spill traffic occupies the device and blocks the task, but
// is deliberately NOT counted in bytesMoved: the monitor's µ is built from
// task input/output metrics (as in Spark's metric system), and counting
// work amplification as goodput would reward exactly the contention the
// controller exists to avoid.
func (tc *taskContext) spill() bool {
	tc.do = (*taskContext).mergeSpill
	return tc.startDisk(tc.ex.node.ID, tc.arg, true)
}

func (tc *taskContext) mergeSpill() bool {
	return tc.startDisk(tc.ex.node.ID, tc.arg, false)
}

// launch is the first operation of every task: it rolls the attempt's
// injected faults and burns the launch overhead — deserialization and setup
// cost a little CPU, as in Spark.
func (tc *taskContext) launch() bool {
	tc.tm.Start = tc.proc.Now()
	tc.disk0 = tc.ex.node.Disk.Snapshot()
	if f := tc.eng.opts.Faults; f != nil {
		budget := tc.eng.cfg.maxFailures - 1
		if ok, frac := f.TaskFault(tc.stage.ID, tc.index, tc.attempt, budget); ok {
			tc.faultAt = int64(frac * float64(tc.inputTotal))
		}
		if len(tc.segments) > 0 {
			tc.fetchFault = f.FetchFault(tc.stage.ID, tc.index, tc.attempt, budget)
		}
	}
	tc.issue(job.Op{Kind: job.OpCompute, Seconds: tc.eng.cfg.taskOverhead})
	return false
}

// finish ends the task — in err, if its generator ended it in one: it
// registers the map output, unless the job has ended and dropped its
// registrations, completes the report and hands tc to the executor, which
// recycles it.
func (tc *taskContext) finish(err error) {
	if err == nil {
		err = tc.failed
	}
	if tc.shuffleOut > 0 && err == nil && tc.ex.epoch == tc.epoch && !tc.eng.jobs[tc.job].done {
		out := tc.eng.shuffle.addMapOutput(setKey{job: tc.job, stage: tc.stage.ID}, tc.stage.NumTasks, tc.index, tc.ex.node.ID, tc.shuffleOut)
		if out == ShuffleRecovered {
			tc.eng.jobs[tc.job].rep.RecoveredBytes += tc.shuffleOut
		}
		if a := tc.eng.aud; a != nil {
			a.ShuffleRegistered(tc.job, tc.stage.ID, tc.index, tc.ex.node.ID, out)
		}
	}
	disk1 := tc.ex.node.Disk.Snapshot()
	if win := (disk1.At - tc.disk0.At).Seconds(); win > 0 {
		tc.tm.DiskBusyFrac = (disk1.Busy - tc.disk0.Busy).Seconds() / win
	}
	tc.tm.End = tc.proc.Now()
	tc.eng.releasePlan(tc.fetchBuf)
	tc.ex.taskDone(tc, err)
}
