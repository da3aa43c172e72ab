package engine

import "sae/internal/engine/job"

// ShuffleOutcome classifies one map-output registration against the shuffle
// registry: first registration, idempotent duplicate (a speculative or
// zombie re-run of an attempt whose output is already live), recovery of an
// output previously invalidated by node loss, or an empty (zero-byte)
// registration that the registry ignores.
type ShuffleOutcome int

const (
	ShuffleAccepted ShuffleOutcome = iota
	ShuffleDuplicate
	ShuffleRecovered
	ShuffleEmpty
)

func (o ShuffleOutcome) String() string {
	switch o {
	case ShuffleAccepted:
		return "accepted"
	case ShuffleDuplicate:
		return "duplicate"
	case ShuffleRecovered:
		return "recovered"
	case ShuffleEmpty:
		return "empty"
	}
	return "unknown"
}

// Audit observes the engine's structural transitions so an external checker
// (see internal/invariant) can verify invariants online — slot
// conservation, per-job byte conservation, exactly-once shuffle emission,
// epoch monotonicity, assignment and heartbeat state-machine legality —
// without participating in the simulation. Implementations must be purely
// observational: they are called synchronously from engine code on the sim
// clock and must not block, schedule events, or mutate engine state. The
// engine guarantees the event log is byte-identical with and without an
// auditor attached.
//
// All hooks fire in deterministic simulation order. Event receives every
// trace event (with At populated) exactly as the sink would emit it; the
// remaining hooks expose transitions that either precede their trace event
// (SlotsReclaimed fires inside loss handling, before the exec_lost event)
// or have no event at all (per-slot launch/release accounting).
type Audit interface {
	// BeginRun fires once per engine, after assembly and before any event
	// can run. active[i] reports driver-view liveness of executor i at
	// t=0 (autoscale capacity not yet activated is inactive).
	BeginRun(active []bool)
	// EndRun fires when Wait completes cleanly (no fatal error).
	EndRun()
	// Event mirrors every trace event in emission order.
	Event(ev TraceEvent)
	// SlotLaunched fires when the driver books a task onto exec's slot
	// table for jobID, immediately before the task_launch event.
	SlotLaunched(exec, jobID int)
	// SlotReleased fires when the driver accepts a task completion and
	// releases its slot.
	SlotReleased(exec, jobID int)
	// SlotsReclaimed fires when the driver declares exec lost (failure
	// detector or decommission) and reclaims its inflight booked slots.
	SlotsReclaimed(exec, inflight int)
	// ExecutorEpoch fires when exec (re)joins at a new incarnation epoch.
	ExecutorEpoch(exec, epoch int)
	// ShuffleRegistered fires for every map-output registration attempt
	// with the registry's verdict.
	ShuffleRegistered(jobID, stage, task, node int, outcome ShuffleOutcome)
	// ShuffleNodeLost fires when a node's map outputs are invalidated
	// (crash, declared loss, or decommission).
	ShuffleNodeLost(node int)
	// TaskAccepted fires when the driver folds a completed task's metrics
	// into its job's report accounting.
	TaskAccepted(jobID int, m job.TaskMetrics)
	// JobFinished fires with the job's final report, after accounting is
	// closed and before the job's shuffle outputs are dropped.
	JobFinished(rep *JobReport)
}

// ForkableAudit is an Audit that runs going side by side can each observe
// through a child of their own. Fork returns an empty child; Join folds in a
// child whose runs have ended, as if the Audit had observed those runs itself
// after every run it has seen, and takes the child back. exp.Each forks one
// child per call and joins them in index order; a fan-out whose Audit cannot
// fork runs its calls in order instead.
type ForkableAudit interface {
	Audit
	Fork() Audit
	Join(child Audit)
}

// removeShuffleNode invalidates node's map outputs and mirrors the loss
// into the audit plane. All shuffle-invalidation paths (crash, declared
// loss, decommission) go through here so the auditor's exactly-once mirror
// stays in lockstep with the registry.
func (e *Engine) removeShuffleNode(node int) {
	e.shuffle.removeNode(node)
	if e.aud != nil {
		e.aud.ShuffleNodeLost(node)
	}
}
