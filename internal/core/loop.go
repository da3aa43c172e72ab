package core

import (
	"time"

	"sae/internal/engine/job"
	"sae/internal/metrics"
)

// loop is the paper's MAPE-K control loop (§5), one per executor and stage.
// Every adaptive policy runs this one loop and differs only in its planner.
//
// [M]onitor   — TaskDone: each completed task reports its blocked-on-I/O time
// (the epoll-wait analogue, ε), bytes moved and disk-busy fraction; the loop
// accumulates them over an interval I_j, defined as the completion of j tasks
// while the pool size is j. Only tasks of the current stage that started
// after the last resize count, so each rung measures steady state at its own
// pool size rather than a smear across regimes.
//
// [A]nalyze   — planner.signal reduces the closed interval to one scalar:
// the congestion index ζ_j (see congestion), or mean disk utilization.
//
// [P]lan      — planner.plan compares it with the previous interval's
// (the [K]nowledge) and picks the next pool size, and whether to freeze.
//
// [E]xecute   — the loop applies the size, restarts the interval clock and
// appends the job.Decision; the executor resizes its pool to the returned
// count and notifies the driver's scheduler so slot accounting stays
// consistent (the engine's ThreadCountUpdate message, mirroring the paper's
// protocol extension).
type loop struct {
	p    planner
	cmax int
	// reprobe re-opens a frozen climb after this many completions (0 =
	// never); see Dynamic.
	reprobe int

	stage job.StageMeta
	knowledge
	// sinceResize is the time of the last planning step.
	sinceResize time.Duration
	acc         metrics.Interval
	busy        float64 // Σ DiskBusyFrac over acc's tasks

	decisions []job.Decision
}

// knowledge is what the loop remembers between intervals of one stage.
type knowledge struct {
	threads int
	// first is set until the stage's first interval closes: there is no
	// previous signal to compare with yet.
	first      bool
	prev       metrics.Interval
	prevSignal float64
	// frozen stops monitoring until the stage ends (or a re-probe);
	// frozenDone counts completions since the freeze.
	frozen     bool
	frozenDone int
}

// sample is one closed interval as the planner sees it.
type sample struct {
	metrics.Interval
	// busy is the mean disk-busy fraction of the interval's tasks (the
	// iostat %util analogue).
	busy float64
}

// planner is the Analyze and Plan half of one adaptive policy.
type planner interface {
	// start returns a stage's first pool size. Policy.InitialThreads and
	// Controller.StageStart both come from here, so the driver's slot
	// table and the executor's pool cannot disagree.
	start(cmax int) int
	// signal is the scalar the planner minimizes or maximizes.
	signal(s sample) float64
	// plan picks the pool size that follows the interval whose signal is
	// sig; k still describes the interval before it. freeze ends the
	// search for the rest of the stage.
	plan(k *knowledge, cmax int, s sample, sig float64) (threads int, freeze bool, reason string)
}

func newLoop(p planner, exec job.ExecutorInfo, reprobe int) *loop {
	return &loop{p: p, cmax: exec.MaxThreads, reprobe: reprobe}
}

// StageStart implements job.Controller: forget the previous stage and start
// over from the planner's starting size.
func (l *loop) StageStart(meta job.StageMeta) int {
	l.stage = meta
	l.restart(0)
	return l.threads
}

func (l *loop) restart(at time.Duration) {
	l.knowledge = knowledge{threads: l.p.start(l.cmax), first: true}
	l.sinceResize = at
	l.acc, l.busy = metrics.Interval{}, 0
}

// TaskDone implements job.Controller.
func (l *loop) TaskDone(tm job.TaskMetrics) (int, bool) {
	if tm.Stage != l.stage.ID {
		return l.threads, false
	}
	if l.frozen {
		l.frozenDone++
		if l.reprobe <= 0 || l.frozenDone < l.reprobe {
			return l.threads, false
		}
		// Re-open the climb: the environment may have changed (L4).
		l.restart(tm.End)
		l.log(tm.End, metrics.Interval{}, "re-probe: restarting hill climb")
		return l.threads, true
	}
	if tm.Start < l.sinceResize {
		return l.threads, false
	}
	l.acc = l.acc.Merge(metrics.Interval{
		Start:     tm.Start,
		End:       tm.End,
		BlockedIO: tm.BlockedIO,
		Bytes:     tm.BytesMoved,
		Tasks:     1,
	})
	l.busy += tm.DiskBusyFrac
	if l.acc.Tasks < l.threads {
		return l.threads, false
	}

	s := sample{Interval: l.acc, busy: l.busy / float64(l.acc.Tasks)}
	sig := l.p.signal(s)
	threads, freeze, reason := l.p.plan(&l.knowledge, l.cmax, s, sig)

	changed := threads != l.threads
	l.knowledge = knowledge{threads: threads, prev: s.Interval, prevSignal: sig, frozen: freeze}
	l.sinceResize = s.End
	l.acc, l.busy = metrics.Interval{}, 0
	l.log(s.End, s.Interval, reason)
	return threads, changed
}

func (l *loop) log(at time.Duration, iv metrics.Interval, reason string) {
	l.decisions = append(l.decisions, job.Decision{
		At:       at,
		Stage:    l.stage.ID,
		Threads:  l.threads,
		Interval: iv,
		Reason:   reason,
	})
}

// Decisions implements job.Controller.
func (l *loop) Decisions() []job.Decision { return l.decisions }

// congestion returns the congestion index ζ = ε/µ the analyzer minimizes.
//
// The paper measures ε with strace as the executor process's epoll-wait
// time: the wait of the JVM's small, fixed set of I/O event-loop threads,
// which park whenever I/O is outstanding. Over an interval in which I/O is
// in flight essentially continuously, that quantity is proportional to the
// interval's *duration*, not to the number of worker threads — so
// ζ = ε/µ ≈ κ·D/µ. We normalize by the interval's task count (an interval
// I_j contains j tasks by construction) to keep ζ comparable across rungs
// of the doubling ladder:
//
//	ζ_j = D_j / (tasks_j · µ_j)
//
// Minimizing this ζ is exactly congestion-avoidance: it falls while doubling
// the pool still improves executor goodput and rises as soon as added
// threads saturate the device. A closed interval holds at least one task.
func congestion(iv metrics.Interval) float64 {
	mu := iv.Throughput()
	if mu <= 0 {
		return 0
	}
	return iv.Duration().Seconds() / float64(iv.Tasks) / mu
}
