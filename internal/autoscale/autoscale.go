// Package autoscale plans cluster sizes. It is the paper's MAPE-K loop
// lifted one level: where self-adaptive executors tune thread pools inside a
// node, the autoscaler tunes the number of nodes — monitor cluster signals,
// analyze demand against estimated per-node capacity, plan a target size,
// and leave actuation (provision delays, cooldowns, draining) to the engine.
//
// The package is a pure leaf: policies map a Snapshot of plain numbers to a
// target node count. Nothing here touches the simulator, so policies unit
// test with hand-built snapshots and stay deterministic by construction.
package autoscale

import (
	"fmt"
	"math"
	"time"
)

// Snapshot is the monitor's view of the cluster at one planning tick.
type Snapshot struct {
	// Now is the sim time of the tick.
	Now time.Duration
	// ActiveNodes counts nodes accepting work; DrainingNodes counts nodes
	// finishing their last tasks. Pending scale-ups are in PendingNodes.
	ActiveNodes, DrainingNodes, PendingNodes int
	// QueuedTasks is the number of runnable-but-unassigned tasks across all
	// jobs; RunningTasks the in-flight attempts.
	QueuedTasks, RunningTasks int
	// TotalSlots and BusySlots describe the active nodes' thread capacity.
	TotalSlots, BusySlots int
	// CompletedTasks is the cumulative task-completion counter (monotone);
	// the adaptive policy differentiates it into throughput.
	CompletedTasks int
	// QueuedJobs counts submitted-but-unstarted jobs (admission backlog).
	QueuedJobs int
}

// Utilization is the busy fraction of active slots (0 with no slots).
func (s Snapshot) Utilization() float64 {
	if s.TotalSlots <= 0 {
		return 0
	}
	return float64(s.BusySlots) / float64(s.TotalSlots)
}

// Policy plans a target node count from a snapshot. Target returns the
// desired total of active+pending nodes and a short reason for the trace;
// the engine clamps to [min,max] and applies cooldowns, so policies encode
// only the demand logic.
type Policy interface {
	Name() string
	Target(s Snapshot) (int, string)
}

// Static never changes the cluster: the target is whatever is provisioned.
// It is the experiment's baseline, not a real policy.
type Static struct{}

func (Static) Name() string { return "static" }
func (Static) Target(s Snapshot) (int, string) {
	return s.ActiveNodes + s.PendingNodes, "static"
}

// Reactive is the classic threshold rule: scale up when slot utilization or
// per-node queue backlog crosses the high watermark, down when both sit
// below the low watermark. It reacts to the symptom (a full queue) rather
// than the cause (demand vs. capacity), so it is prone to lagging bursts and
// oscillating on noise — exactly the behaviours the adaptive policy is
// meant to beat.
type Reactive struct {
	// HighUtil/LowUtil are slot-utilization watermarks (e.g. 0.85/0.30).
	HighUtil, LowUtil float64
	// HighQueue is the queued-tasks-per-node backlog that also triggers
	// scale-up, catching bursts that arrive faster than slots report busy.
	HighQueue float64
	// Step is how many nodes to add/remove per trigger (≥ 1).
	Step int
}

// DefaultReactive returns the watermark settings used by the experiments.
func DefaultReactive() *Reactive {
	return &Reactive{HighUtil: 0.85, LowUtil: 0.30, HighQueue: 8, Step: 1}
}

func (r *Reactive) Name() string { return "reactive" }

func (r *Reactive) Target(s Snapshot) (int, string) {
	step := r.Step
	if step < 1 {
		step = 1
	}
	cur := s.ActiveNodes + s.PendingNodes
	util := s.Utilization()
	perNode := math.Inf(1)
	if cur > 0 {
		perNode = float64(s.QueuedTasks) / float64(cur)
	}
	switch {
	case util > r.HighUtil || perNode > r.HighQueue:
		return cur + step, fmt.Sprintf("util %.2f queue/node %.1f above high watermark", util, perNode)
	case util < r.LowUtil && perNode < r.HighQueue/2 && s.QueuedJobs == 0:
		return cur - step, fmt.Sprintf("util %.2f below low watermark", util)
	default:
		return cur, "within watermarks"
	}
}

// Adaptive is the Daedalus-style self-adaptive planner. Monitor: differentiate
// the cumulative task-completion counter into a throughput estimate and keep
// an EWMA of per-node task-processing capacity µ (tasks/s/node). Analyze:
// demand is the observed completion rate plus the rate needed to drain the
// current backlog within DrainTarget. Plan: target = ⌈demand·headroom ⁄ µ⌉.
// The capacity estimate replaces the reactive policy's fixed watermarks —
// the plan scales with *how fast nodes actually process tasks*, so one
// configuration tracks both light and heavy task mixes.
type Adaptive struct {
	// Alpha is the EWMA weight for new capacity samples (0..1].
	Alpha float64
	// DrainTarget is how quickly the planner wants the current backlog
	// cleared; smaller values provision more aggressively.
	DrainTarget time.Duration
	// Headroom multiplies planned demand (e.g. 1.2 = 20% slack) so the
	// plan absorbs arrival noise without tripping every tick.
	Headroom float64
	// MinSamplePeriod guards the differentiator against noisy short ticks.
	MinSamplePeriod time.Duration

	// perNode is the EWMA of µ in tasks/s per node; 0 until the first
	// sample with observed completions.
	perNode float64
	// lastCompleted/lastAt is the previous tick's counter reading.
	lastCompleted int
	lastAt        time.Duration
	primed        bool
}

func (a *Adaptive) Name() string { return "adaptive" }

// Capacity exposes the current µ estimate (tasks/s/node) for reports.
func (a *Adaptive) Capacity() float64 { return a.perNode }

func (a *Adaptive) Target(s Snapshot) (int, string) {
	cur := s.ActiveNodes + s.PendingNodes
	dt := s.Now - a.lastAt
	if !a.primed {
		a.primed = true
		a.lastCompleted, a.lastAt = s.CompletedTasks, s.Now
		return cur, "priming capacity estimate"
	}
	if dt < a.MinSamplePeriod {
		return cur, "sample period too short"
	}

	// Monitor: throughput over the tick, capacity per serving node.
	done := s.CompletedTasks - a.lastCompleted
	a.lastCompleted, a.lastAt = s.CompletedTasks, s.Now
	rate := float64(done) / dt.Seconds()
	serving := s.ActiveNodes + s.DrainingNodes
	if done > 0 && serving > 0 {
		sample := rate / float64(serving)
		if a.perNode == 0 {
			a.perNode = sample
		} else {
			a.perNode += float64(a.Alpha * (sample - a.perNode))
		}
	}
	if a.perNode <= 0 {
		// No capacity estimate yet. If work is visibly waiting, grow —
		// otherwise we can deadlock a cold cluster at size zero demand.
		if s.QueuedTasks > 0 || s.QueuedJobs > 0 {
			return cur + 1, "no capacity estimate, backlog present"
		}
		return cur, "no capacity estimate"
	}

	// Analyze: sustaining demand = the rate work arrived at the cluster
	// over the tick (completions keep the queue level; backlog growth is
	// queue delta) plus draining the standing backlog within DrainTarget.
	backlog := float64(s.QueuedTasks)
	drain := a.DrainTarget.Seconds()
	if drain <= 0 {
		drain = 60
	}
	demand := rate + backlog/drain

	// Plan: nodes = demand / per-node capacity, with headroom.
	head := a.Headroom
	if head < 1 {
		head = 1
	}
	target := int(math.Ceil(demand * head / a.perNode))
	if target < 1 {
		target = 1
	}
	return target, fmt.Sprintf("µ=%.3f tasks/s/node demand=%.3f tasks/s backlog=%d",
		a.perNode, demand, s.QueuedTasks)
}
