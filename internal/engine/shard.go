package engine

// Shard routing: which kernel owns what, and how messages cross shards.
//
// A run takes one of two paths, chosen once in NewEngine from Options alone
// (windowsEligible): a single sim.Kernel, or per-node-group kernels under a
// sim.ShardSet advanced concurrently through conservative lookahead windows.
// On the sharded path the driver (scheduler, DAG manager, failure detectors)
// lives on shard 0's kernel; every node's devices, executor process,
// heartbeat ticker and task processes live on the node's shard. Control
// messages between the driver and an executor on another shard are the only
// cross-shard interaction, and the control latency is the shard lookahead.
//
// A sharded run is deterministic (repeated runs are identical) but not
// byte-identical to the one-kernel run in general, so every interaction that
// would reach across shards at zero latency — shuffle fetches, remote DFS
// reads, cross-node failover — must be absent: windowsEligible rules out the
// options that bring one, SubmitAt the stages.

import (
	"fmt"

	"sae/internal/engine/job"
	"sae/internal/sim"
)

// kernelOf returns the kernel owning node's events: the node's shard kernel
// on a sharded engine, the engine kernel otherwise.
func (e *Engine) kernelOf(node int) *sim.Kernel {
	if e.ss == nil {
		return e.k
	}
	return e.ss.Shard(e.shardOf[node])
}

// shardFor returns the shard owning node (0 when unsharded — everything
// lives on the one kernel).
func (e *Engine) shardFor(node int) int {
	if e.shardOf == nil {
		return 0
	}
	return e.shardOf[node]
}

// sendDriver posts an executor→driver control message after the control
// latency. A message from a non-zero shard crosses to the driver's shard
// through the coordinator — the latency is served on the sending side of the
// lookahead barrier and the message lands in the driver's mailbox in
// deterministic (time, source shard, source seq) order.
func (e *Engine) sendDriver(srcShard int, msg driverMsg) {
	if srcShard != 0 {
		e.sendDriverAcross(srcShard, msg)
		return
	}
	e.toDriver.Send(e.cluster.ControlLatency(), msg)
}

// sendDriverAcross is sendDriver's cross-shard half. Its closure captures a
// message larger than 128 bytes, which Go moves to the heap as the capturing
// function is entered: inline, it would cost every message an allocation.
func (e *Engine) sendDriverAcross(srcShard int, msg driverMsg) {
	e.ss.Send(srcShard, 0, e.cluster.ControlLatency(), func() { e.toDriver.Put(msg) })
}

// sendExec posts a driver→executor control message after the control
// latency, crossing shards through the coordinator when the executor lives
// off the driver's shard.
func (e *Engine) sendExec(ex *Executor, msg execMsg) {
	if ex.shard != 0 {
		e.sendExecAcross(ex, msg)
		return
	}
	ex.inbox.Send(e.cluster.ControlLatency(), msg)
}

// sendExecAcross is sendExec's cross-shard half, apart as sendDriverAcross is.
func (e *Engine) sendExecAcross(ex *Executor, msg execMsg) {
	e.ss.Send(0, ex.shard, e.cluster.ControlLatency(), func() { ex.inbox.Put(msg) })
}

// FiredEvents returns the number of events fired across the whole run —
// summed over every shard kernel on a sharded engine.
func (e *Engine) FiredEvents() uint64 {
	if e.ss != nil {
		return e.ss.FiredEvents()
	}
	return e.k.FiredEvents()
}

// Windowed reports whether the engine runs on shard kernels advanced
// concurrently through lookahead windows rather than on one kernel.
func (e *Engine) Windowed() bool { return e.ss != nil }

// windowsEligible reports whether a run with these options may be sharded.
// The rule is conservative: everything that could touch state on another
// shard at below the control latency — or that promises byte-identical
// output — keeps the run on one kernel.
//
//   - Trace, Audit and Metrics promise byte-identical output, which only one
//     kernel's global event order preserves.
//   - OnSetup hooks typically attach samplers on the driver kernel that read
//     executor and node state engine-wide.
//   - Quiet plans (no faults) are the golden-scenario surface; they stay on
//     one kernel for the same reason.
//   - Autoscale decommission drains and capacity activation mutate executor
//     state from driver context.
//   - Crashes flip ex.alive, which the driver-side DFS fault model and
//     restart accounting read.
//   - Replica corruption re-routes DFS reads to other nodes' replicas.
//   - Replication > 0 places block replicas on a subset of nodes, so a task
//     may read a remote disk directly.
//
// Slowdowns, partitions and transient task I/O faults are shard-local or
// pure, so grayfail scans — the perf target — qualify.
func windowsEligible(o *Options) bool {
	if o.Trace != nil || o.Audit != nil || o.Metrics != nil || o.Autoscale != nil || o.OnSetup != nil {
		return false
	}
	if o.Replication != 0 {
		return false
	}
	plan := o.Faults
	return !plan.Empty() && len(plan.Crashes) == 0 && plan.CorruptRate <= 0
}

// checkShardable is the jobs half of the rule: shuffle output, shuffle input
// and DFS output all reach across nodes from task context (fetches, registry
// updates, output writes), and a Work generator runs caller code there, so a
// sharded engine takes none of them.
func checkShardable(spec *job.JobSpec) error {
	for _, st := range spec.Stages {
		if st.ShuffleWriteBytes > 0 || len(st.ShuffleFrom) > 0 || st.OutputFile != "" || st.Work != nil {
			return fmt.Errorf("engine: job %s stage %d (%s) shuffles, writes output or carries Work, which an engine sharded by Options.Shards cannot run", spec.Name, st.ID, st.Name)
		}
	}
	return nil
}
