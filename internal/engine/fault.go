package engine

import (
	"errors"
	"fmt"

	"sae/internal/chaos"
)

// Fault-path errors. Injected transients go through the normal retry path
// (they count against task.maxFailures, which the chaos plan's attempt
// budget keeps below the abort threshold); a fetchFailedError means real
// map output died with a node and triggers lineage recovery instead.
var (
	// errExecutorLost aborts a zombie task's remaining work after its
	// executor crashed. It never reaches the driver — zombie completions
	// are filtered at the executor.
	errExecutorLost = errors.New("executor lost")
	// errInjectedIO is a chaos-injected transient task I/O fault.
	errInjectedIO = errors.New("injected I/O fault")
	// errInjectedFetch is a chaos-injected transient shuffle-fetch
	// failure.
	errInjectedFetch = errors.New("injected fetch failure")
)

// fetchFailedError reports a shuffle fetch against map output that no
// longer exists: the plan's source node lost its shuffle files after the
// plan was computed (Spark's FetchFailedException).
type fetchFailedError struct {
	node int
}

func (e *fetchFailedError) Error() string {
	return fmt.Sprintf("fetch failed: map output on node %d was lost", e.node)
}

// scheduleFaults arms the chaos plan's crash, slowdown and partition
// schedules on the sim clock; NewEngine has checked that every executor they
// name exists. All handlers run in event context: they only flip state and
// post mailbox messages, never park.
func (e *Engine) scheduleFaults(plan *chaos.Plan) {
	for _, c := range plan.SortedCrashes() {
		e.k.At(c.At, func() { e.crashExecutor(c.Exec) })
		if c.RestartAfter > 0 {
			e.k.At(c.At+c.RestartAfter, func() { e.restartExecutor(c.Exec) })
		}
	}
	for _, s := range plan.SortedSlows() {
		// The slowdown throttles node-local devices, so it fires on the
		// node's shard kernel.
		e.kernelOf(s.Exec).At(s.At, func() {
			if e.done.Load() {
				return
			}
			node := e.executors[s.Exec].node
			node.SetThrottle(s.Factor)
			e.trace(TraceEvent{Type: TraceExecSlow, Job: -1, Stage: -1, Task: -1, Exec: s.Exec,
				Detail: fmt.Sprintf("devices throttled %gx", s.Factor)})
		})
	}
	// Partitions take effect through pure-function lookups of the plan
	// (Partitioned at heartbeat/fetch time); the timers below only mark the
	// window edges in the trace.
	for _, pt := range plan.SortedPartitions() {
		e.k.At(pt.At, func() {
			if e.done.Load() {
				return
			}
			e.trace(TraceEvent{Type: TracePartition, Job: -1, Stage: -1, Task: -1, Exec: pt.Exec,
				Detail: fmt.Sprintf("start, heals after %s", pt.Duration)})
		})
		e.k.At(pt.At+pt.Duration, func() {
			if e.done.Load() {
				return
			}
			e.trace(TraceEvent{Type: TracePartition, Job: -1, Stage: -1, Task: -1, Exec: pt.Exec,
				Detail: "healed"})
		})
	}
}

// crashExecutor kills executor i at the current virtual time: its local
// queue and shuffle files are gone and running tasks become zombies. The
// driver is NOT notified — it has no loss oracle. Its failure detector
// notices the heartbeat silence, suspects, and declares the executor lost
// at the heartbeat timeout.
func (e *Engine) crashExecutor(i int) {
	if e.done.Load() {
		return
	}
	ex := e.executors[i]
	if !ex.alive {
		return
	}
	ex.shutdown()
	// The node's local shuffle files die with the executor process; DFS
	// blocks survive (the datanode is a separate process).
	e.removeShuffleNode(ex.node.ID)
	e.trace(TraceEvent{Type: TraceExecCrash, Job: -1, Stage: ex.curStage, Task: -1, Exec: i, Detail: "crash"})
}

// restartExecutor brings executor i back: the driver re-establishes the
// ThreadCountUpdate flow by re-sending the active stages, whose fresh
// controllers bootstrap the MAPE-K loop again from cmin.
func (e *Engine) restartExecutor(i int) {
	if e.done.Load() {
		return
	}
	ex := e.executors[i]
	if ex.alive {
		return
	}
	if e.em.admin[i] == adminDown {
		// The autoscaler decommissioned (or never activated) this node; a
		// chaos restart must not resurrect capacity the scaler handed back.
		return
	}
	ex.alive = true
	ex.restarts++
	e.trace(TraceEvent{Type: TraceExecRestart, Job: -1, Stage: ex.curStage, Task: -1, Exec: i})
	e.toDriver.Send(e.cluster.ControlLatency(), driverMsg{kind: driverExecJoin, exec: i, epoch: ex.epoch})
}

// restartPending reports whether an executor the driver counts as lost is
// still due back — either the fault schedule owes a restart for a dead
// process, or the process is in fact alive (a false-positive declaration)
// and will be fenced back in on its next heartbeat. If so, a fully-dark
// cluster should wait rather than abort.
func (e *Engine) restartPending() bool {
	for i, ex := range e.executors {
		if !e.em.alive[i] && ex.alive {
			return true
		}
	}
	if e.auto.capacityPending() {
		return true
	}
	plan := e.opts.Faults
	if plan == nil {
		return false
	}
	now := e.k.Now()
	for _, c := range plan.Crashes {
		if c.RestartAfter <= 0 || c.Exec < 0 || c.Exec >= len(e.executors) {
			continue
		}
		if !e.executors[c.Exec].alive && c.At+c.RestartAfter > now {
			return true
		}
	}
	return false
}
