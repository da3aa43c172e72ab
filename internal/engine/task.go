package engine

import (
	"fmt"
	"time"

	"sae/internal/dfs"
	"sae/internal/engine/job"
	"sae/internal/sim"
)

// taskContext implements job.TaskContext: it executes one task's I/O and
// compute against the owning node's simulated devices and accounts the
// monitor's raw inputs.
//
// ε accounting: each disk operation contributes its elapsed time scaled by
// the device's contention factor at issue (device.DiskSpec.Overload). At or
// below the device's best operating point, readahead and command queuing
// hide service latency from the application — read() returns from cache —
// so epoll-style blocked time is the contention-induced share of the wait.
// This is what makes ε grow steeply with thread count on saturated HDDs
// (Fig. 7) while staying near zero on SSDs (§6.3) and on CPU-heavy stages.
//
// Fault paths: a sim process cannot be cancelled while parked in a device
// queue, so a task whose executor crashed keeps running as a zombie — every
// subsequent device charge no-ops (failed is set to errExecutorLost) and it
// fast-forwards to completion, where the executor drops its report. Chaos
// plans additionally inject transient I/O faults (the task aborts partway
// through its input) and fetch failures; stale fetch plans against lost map
// output abort with fetchFailedError, the driver's lineage-recovery signal.
type taskContext struct {
	eng     *Engine
	p       *sim.Proc
	ex      *Executor
	jobID   int
	stage   *job.StageSpec
	index   int
	attempt int
	// epoch is the executor incarnation that launched this task; when it
	// differs from the executor's current epoch the task is a zombie.
	epoch int

	// failed aborts all further device activity once set.
	failed error
	// faultAt, if ≥ 0, injects a transient I/O fault once bytesMoved
	// crosses it.
	faultAt int64
	// fetchFault injects one transient shuffle-fetch failure.
	fetchFault bool

	// input plan
	blocks   []dfs.Block // remaining DFS blocks (first partially consumed)
	blockOff int64       // bytes already consumed of blocks[0]
	// blockSrc is the verified replica the current block streams from
	// (-1 = not yet picked for blocks[0]).
	blockSrc int
	segments []segment // remaining shuffle fetch segments
	segOff   int64

	inputTotal int64

	// accounting
	blockedIO  time.Duration
	bytesMoved int64
	shuffleOut int64
	// diskReadB/diskWriteB/netB mirror every device charge this task
	// issues (including spill amplification and remote-node reads), so
	// the driver can attribute device traffic to the owning job without
	// cluster-global counter deltas that double-count under concurrency.
	diskReadB    int64
	diskWriteB   int64
	netB         int64
	allLocal     bool
	computeSpent float64
	// Gray-failure accounting for the attempt.
	fetchRetries      int
	checksumFailovers int
}

var _ job.TaskContext = (*taskContext)(nil)

func (tc *taskContext) Node() int             { return tc.ex.node.ID }
func (tc *taskContext) Executor() int         { return tc.ex.id }
func (tc *taskContext) Stage() *job.StageSpec { return tc.stage }
func (tc *taskContext) Index() int            { return tc.index }
func (tc *taskContext) InputBytes() int64     { return tc.inputTotal }

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

// diskRead reads bytes from node's disk, attributing contention wait to ε.
func (tc *taskContext) diskRead(node int, bytes int64) {
	d := tc.eng.cluster.Node(node).Disk
	ov := d.OverloadAhead()
	t0 := tc.p.Now()
	d.Read(tc.p, bytes)
	tc.blockedIO += time.Duration(float64(tc.p.Now()-t0) * ov)
	tc.diskReadB += bytes
}

// diskWrite writes bytes to node's disk, attributing contention wait to ε.
func (tc *taskContext) diskWrite(node int, bytes int64) {
	d := tc.eng.cluster.Node(node).Disk
	ov := d.OverloadAhead()
	t0 := tc.p.Now()
	d.Write(tc.p, bytes)
	tc.blockedIO += time.Duration(float64(tc.p.Now()-t0) * ov)
	tc.diskWriteB += bytes
}

// transfer moves bytes across the network (free when src == dst), counting
// them toward the task's attributed network traffic.
func (tc *taskContext) transfer(src, dst int, bytes int64) {
	tc.eng.cluster.Transfer(tc.p, src, dst, bytes)
	if src != dst {
		tc.netB += bytes
	}
}

// ReadInput implements job.TaskContext: consume up to max bytes of the
// task's DFS split, then of its shuffle fetch plan.
func (tc *taskContext) ReadInput(max int64) int64 {
	if max <= 0 || tc.aborted() {
		return 0
	}
	var read int64
	for read < max && len(tc.blocks) > 0 {
		if tc.aborted() {
			break
		}
		b := tc.blocks[0]
		if tc.blockSrc < 0 {
			src, err := tc.pickBlockSrc(b)
			if err != nil {
				tc.failed = err
				break
			}
			tc.blockSrc = src
		}
		n := b.Size - tc.blockOff
		if budget := max - read; n > budget {
			n = budget
		}
		if tc.blockSrc == tc.ex.node.ID {
			tc.diskRead(tc.ex.node.ID, n)
		} else {
			tc.allLocal = false
			tc.diskRead(tc.blockSrc, n)
			tc.transfer(tc.blockSrc, tc.ex.node.ID, n)
		}
		read += n
		tc.blockOff += n
		if tc.blockOff >= b.Size {
			tc.blocks = tc.blocks[1:]
			tc.blockOff = 0
			tc.blockSrc = -1
		}
		if tc.injectFault(read) {
			break
		}
	}
	for read < max && len(tc.segments) > 0 {
		if tc.aborted() {
			break
		}
		s := tc.segments[0]
		if tc.segOff == 0 {
			// Opening a segment: the fetch may fail transiently (chaos
			// injection or a partition window) and is retried with
			// bounded exponential backoff before surfacing.
			if err := tc.fetchReady(s); err != nil {
				tc.failed = err
				break
			}
		} else if !tc.eng.shuffle.segmentValid(s) {
			// The plan predates a node loss mid-segment: the map output
			// this segment points at is gone (FetchFailedException).
			tc.failed = &fetchFailedError{node: s.node}
			break
		}
		n := s.bytes - tc.segOff
		if budget := max - read; n > budget {
			n = budget
		}
		// Shuffle fetch: the map output is read from the source node's
		// disk; remote segments additionally cross the network
		// (Spark's shuffle block fetch).
		tc.diskRead(s.node, n)
		tc.transfer(s.node, tc.ex.node.ID, n)
		read += n
		tc.segOff += n
		if tc.segOff >= s.bytes {
			tc.segments = tc.segments[1:]
			tc.segOff = 0
		}
		if tc.injectFault(read) {
			break
		}
	}
	tc.bytesMoved += read
	return read
}

// pickBlockSrc selects the replica the current block will stream from:
// nearest live replica first (local, then ascending node distance), falling
// over to the next-closest when a replica's checksum does not verify. A
// corrupted replica is only discovered after pulling the whole block, so
// the wasted read (and transfer, for remote replicas) is charged to the
// devices without counting toward task input. It fails only when every
// replica is unreachable or corrupt — a permanent error that rides the
// normal task-failure path.
func (tc *taskContext) pickBlockSrc(b dfs.Block) (int, error) {
	e := tc.eng
	reader := tc.ex.node.ID
	var bad map[int]bool // made on the first failover; most blocks never fail over
	for {
		src, ok := e.fs.PickReplica(b, reader, bad)
		if !ok {
			return -1, fmt.Errorf("block %d: all %d replicas unreachable or corrupt", b.Index, len(b.Replicas))
		}
		switch {
		case src != reader && e.partitionedNow(tc.ex.id):
			// The reader's own node is inside a partition window: every
			// remote replica is out of reach from this side.
		case e.fs.ReadSum(b, src) != b.Sum:
			tc.diskRead(src, b.Size)
			tc.transfer(src, reader, b.Size)
			tc.checksumFailovers++
			e.trace(TraceEvent{Type: TraceChecksum, Job: tc.jobID, Stage: tc.stage.ID, Task: tc.index, Exec: tc.ex.id,
				Detail: fmt.Sprintf("replica on node %d failed checksum", src)})
		default:
			return src, nil
		}
		if bad == nil {
			bad = make(map[int]bool)
		}
		bad[src] = true
	}
}

// fetchReady gates the opening of one shuffle segment: a fetch drops while
// either endpoint is partitioned or when the chaos plan injects a transient
// failure, and dropped fetches are retried with bounded exponential backoff
// (Spark's spark.shuffle.io.maxRetries / retryWait). Exhausting the budget
// surfaces errInjectedFetch for injected transients (charged to the
// attempt) or fetchFailedError for partitions (requeued without charge). A
// segment whose map output is gone fails immediately — no retry can bring
// it back; only lineage recovery can.
func (tc *taskContext) fetchReady(s segment) error {
	e := tc.eng
	f := e.opts.Faults
	budget := e.opts.TaskMaxFailures - 1
	for try := 0; ; try++ {
		if tc.aborted() {
			return tc.failed
		}
		if !e.shuffle.segmentValid(s) {
			return &fetchFailedError{node: s.node}
		}
		if try > 0 && tc.fetchFault && f != nil {
			// Transients may clear between tries: re-roll this try.
			tc.fetchFault = f.FetchFaultTry(tc.stage.ID, tc.index, tc.attempt, try, budget)
		}
		partitioned := e.partitionedNow(tc.ex.id) || e.partitionedNow(s.node)
		if !partitioned && !tc.fetchFault {
			return nil
		}
		if try >= e.opts.FetchMaxRetries {
			if tc.fetchFault {
				tc.fetchFault = false
				return errInjectedFetch
			}
			return &fetchFailedError{node: s.node}
		}
		tc.fetchRetries++
		tc.p.Sleep(e.opts.FetchRetryWait << try)
	}
}

// injectFault fires the scheduled transient I/O fault once the task's
// cumulative input crosses the fault point.
func (tc *taskContext) injectFault(pendingRead int64) bool {
	if tc.faultAt < 0 || tc.bytesMoved+pendingRead < tc.faultAt {
		return false
	}
	tc.faultAt = -1
	tc.failed = errInjectedIO
	return true
}

// Compute implements job.TaskContext. Memory pressure inflates the charge
// with the executor's current concurrency (see job.StageSpec.MemPressure).
func (tc *taskContext) Compute(seconds float64) {
	if seconds <= 0 || tc.aborted() {
		return
	}
	if mp := tc.stage.MemPressure; mp > 0 {
		vcores := tc.ex.node.CPU.Spec().VirtualCores
		if vcores > 1 {
			seconds *= 1 + mp*float64(tc.ex.running-1)/float64(vcores-1)
		}
	}
	tc.computeSpent += seconds
	tc.ex.node.CPU.Compute(tc.p, seconds)
}

// WriteShuffle implements job.TaskContext: spill map output to local disk.
func (tc *taskContext) WriteShuffle(bytes int64) {
	if bytes <= 0 || tc.aborted() {
		return
	}
	tc.diskWrite(tc.ex.node.ID, bytes)
	tc.bytesMoved += bytes
	tc.shuffleOut += bytes
}

// WriteOutput implements job.TaskContext: write DFS output.
func (tc *taskContext) WriteOutput(bytes int64) {
	if bytes <= 0 || tc.stage.OutputFile == "" || tc.aborted() {
		return
	}
	ov := tc.ex.node.Disk.OverloadAhead()
	t0 := tc.p.Now()
	tc.eng.fs.Write(tc.p, tc.ex.node.ID, tc.stage.OutputFile, bytes)
	tc.blockedIO += time.Duration(float64(tc.p.Now()-t0) * ov)
	tc.bytesMoved += bytes
	// DFS writes charge the writer's local disk (see dfs.FS.Write).
	tc.diskWriteB += bytes
}

// Spill implements job.TaskContext: write temporary data to local disk and
// merge it back. Spill traffic occupies the device and blocks the task, but
// is deliberately NOT counted in bytesMoved: the monitor's µ is built from
// task input/output metrics (as in Spark's metric system), and counting
// work amplification as goodput would reward exactly the contention the
// controller exists to avoid.
func (tc *taskContext) Spill(bytes int64) {
	if bytes <= 0 || tc.aborted() {
		return
	}
	tc.diskWrite(tc.ex.node.ID, bytes)
	tc.diskRead(tc.ex.node.ID, bytes)
}

// Concurrency implements job.TaskContext.
func (tc *taskContext) Concurrency() int { return tc.ex.running }

// VirtualCores implements job.TaskContext.
func (tc *taskContext) VirtualCores() int { return tc.ex.node.CPU.Spec().VirtualCores }

// run executes the task's work and returns its metrics.
func (tc *taskContext) run(work job.Work) (job.TaskMetrics, error) {
	start := tc.p.Now()
	disk0 := tc.ex.node.Disk.Snapshot()
	tc.faultAt = -1
	tc.blockSrc = -1
	if f := tc.eng.opts.Faults; f != nil {
		budget := tc.eng.opts.TaskMaxFailures - 1
		if ok, frac := f.TaskFault(tc.stage.ID, tc.index, tc.attempt, budget); ok {
			tc.faultAt = int64(frac * float64(tc.inputTotal))
		}
		if len(tc.segments) > 0 {
			tc.fetchFault = f.FetchFault(tc.stage.ID, tc.index, tc.attempt, budget)
		}
	}
	// Task launch overhead: deserialization and setup burn a little CPU,
	// as in Spark.
	tc.Compute(tc.eng.opts.TaskOverheadCPUSeconds)
	err := work.Execute(tc)
	if err == nil {
		err = tc.failed
	}
	if tc.shuffleOut > 0 && err == nil && tc.ex.epoch == tc.epoch {
		out := tc.eng.shuffle.addMapOutput(setKey{job: tc.jobID, stage: tc.stage.ID}, tc.index, tc.ex.node.ID, tc.shuffleOut)
		if a := tc.eng.aud; a != nil {
			a.ShuffleRegistered(tc.jobID, tc.stage.ID, tc.index, tc.ex.node.ID, out)
		}
	}
	disk1 := tc.ex.node.Disk.Snapshot()
	busyFrac := 0.0
	if win := (disk1.At - disk0.At).Seconds(); win > 0 {
		busyFrac = (disk1.Busy - disk0.Busy).Seconds() / win
	}
	return job.TaskMetrics{
		Stage:             tc.stage.ID,
		Index:             tc.index,
		Start:             start,
		End:               tc.p.Now(),
		BlockedIO:         tc.blockedIO,
		BytesMoved:        tc.bytesMoved,
		DiskReadBytes:     tc.diskReadB,
		DiskWriteBytes:    tc.diskWriteB,
		NetBytes:          tc.netB,
		DiskBusyFrac:      busyFrac,
		Local:             tc.allLocal,
		FetchRetries:      tc.fetchRetries,
		ChecksumFailovers: tc.checksumFailovers,
	}, err
}
