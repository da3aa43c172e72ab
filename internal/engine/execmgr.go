package engine

import (
	"fmt"
	"time"

	"sae/internal/sim"
)

// execManager owns the driver-side view of the executor fleet: the slot
// table (limit − inflight per executor, following the executors'
// ThreadCountUpdate messages), incarnation epochs, consecutive-failure
// streaks and the blacklist. It is cluster-scoped — one instance serves
// every job on the engine — so an executor lost while job A runs is still
// gone when job B's stages schedule, exactly like Spark's
// TaskSchedulerImpl-level executor tracking.
type execManager struct {
	eng *Engine

	// limits is the driver's copy of each executor's pool size; inflight
	// counts assignments not yet reported done. limit − inflight is the
	// executor's free slot count.
	limits   []int
	inflight []int
	// inflightJob[i][job] breaks inflight down per job, so a crash can
	// return the dead executor's slots to the right jobs' fair-share
	// accounts. Wait makes the rows (Engine.sizeJobTables).
	inflightJob [][]int
	// epochs mirrors each executor's incarnation counter; messages from an
	// older incarnation are stale and dropped.
	epochs     []int
	failStreak []int
	alive      []bool
	// blacklisted marks executors with cfg.blacklistAfter consecutive task
	// failures; they receive no new work until a crash/restart clears the
	// flag.
	blacklisted []bool
	// admin is the autoscaler's administrative state per executor
	// (active/draining/down), orthogonal to liveness. Without an
	// autoscaler every executor stays adminActive for the whole run. Admin
	// transitions belong to the autoscale controller only — markJoined
	// deliberately leaves them alone, so a fenced-and-rejoined incarnation
	// cannot un-drain its node.
	admin []adminState

	// Failure-detector state. The driver learns of executor loss only from
	// heartbeat silence: lastBeat records each executor's most recent
	// accepted beat; suspected marks executors whose beats stopped
	// suspectAfter ago (no new work until a beat clears it); fencing marks
	// declared-lost executors that turned out to be alive and were ordered
	// to adopt a fresh epoch. suspectEv/lostEv are the armed timers.
	lastBeat  []time.Duration
	suspected []bool
	fencing   []bool
	suspectEv []sim.Event
	lostEv    []sim.Event
	// onSuspectFn/onLostFn hold the per-executor timer callbacks, built once
	// at construction so re-arming a detector never allocates a closure.
	onSuspectFn []func()
	onLostFn    []func()
}

func newExecManager(eng *Engine, n int) *execManager {
	m := &execManager{
		eng:         eng,
		limits:      make([]int, n),
		inflight:    make([]int, n),
		inflightJob: make([][]int, n),
		epochs:      make([]int, n),
		failStreak:  make([]int, n),
		alive:       make([]bool, n),
		blacklisted: make([]bool, n),
		admin:       make([]adminState, n),
		lastBeat:    make([]time.Duration, n),
		suspected:   make([]bool, n),
		fencing:     make([]bool, n),
		suspectEv:   make([]sim.Event, n),
		lostEv:      make([]sim.Event, n),
		onSuspectFn: make([]func(), n),
		onLostFn:    make([]func(), n),
	}
	for i := range m.alive {
		m.alive[i] = true
		i := i
		m.onSuspectFn[i] = func() { m.onSuspect(i) }
		m.onLostFn[i] = func() { m.onLost(i) }
	}
	return m
}

// The failure detector suspects an executor after suspectBeats silent
// heartbeat intervals and declares it lost at lossBeats.
const (
	suspectBeats = 3
	lossBeats    = 2 * suspectBeats
)

// suspectAfter is how long without a beat before an executor is suspected.
func (m *execManager) suspectAfter() time.Duration {
	return suspectBeats * m.eng.cfg.heartbeat
}

// armDetector (re)starts the failure-detector timer for executor i from the
// current instant, as if a beat had just been accepted. The suspect deadline
// is pushed back in place on every beat — the kernel-queue churn of
// cancelling and reallocating a timer per heartbeat is what the indexed
// event queue exists to avoid.
func (m *execManager) armDetector(i int) {
	m.lostEv[i].Cancel()
	m.lostEv[i] = sim.Event{}
	m.lastBeat[i] = m.eng.k.Now()
	if m.suspectEv[i].Active() {
		m.suspectEv[i].Reschedule(m.eng.k.Now() + m.suspectAfter())
	} else {
		m.suspectEv[i] = m.eng.k.After(m.suspectAfter(), m.onSuspectFn[i])
	}
}

func (m *execManager) cancelTimers(i int) {
	m.suspectEv[i].Cancel()
	m.suspectEv[i] = sim.Event{}
	m.lostEv[i].Cancel()
	m.lostEv[i] = sim.Event{}
}

// noteBeat accepts a heartbeat from a live executor: clear any standing
// suspicion (the slow node caught up) and re-arm the timer.
func (m *execManager) noteBeat(b *driverMsg) {
	i := b.exec
	if m.suspected[i] {
		m.suspected[i] = false
		m.eng.trace(TraceEvent{Type: TraceExecSuspect, Job: -1, Stage: -1, Task: -1, Exec: i,
			Detail: DetailSuspectCleared})
		m.eng.sched.assign(i)
	}
	m.armDetector(i)
}

// onSuspect fires when suspectAfter passes with no beat: the executor stops
// receiving new work, and the loss timer starts. Runs in event context.
func (m *execManager) onSuspect(i int) {
	m.suspectEv[i] = sim.Event{}
	if m.eng.done.Load() || !m.alive[i] {
		return
	}
	m.suspected[i] = true
	m.eng.trace(TraceEvent{Type: TraceExecSuspect, Job: -1, Stage: -1, Task: -1, Exec: i,
		Detail: fmt.Sprintf("no heartbeat for %s", m.eng.k.Now()-m.lastBeat[i])})
	for _, js := range m.eng.jobs {
		if js.started && !js.done {
			js.rep.Suspected++
		}
	}
	m.lostEv[i] = m.eng.k.After((lossBeats-suspectBeats)*m.eng.cfg.heartbeat, m.onLostFn[i])
}

// onLost fires lossBeats intervals after the last beat: declare the
// incarnation lost. The declaration goes through the driver mailbox so every
// scheduler mutation happens in the driver loop, in deterministic message
// order.
func (m *execManager) onLost(i int) {
	m.lostEv[i] = sim.Event{}
	if m.eng.done.Load() || !m.alive[i] {
		return
	}
	m.eng.toDriver.Send(0, driverMsg{kind: driverExecLost, exec: i, epoch: m.epochs[i]})
}

// assignable reports whether executor i may receive new tasks. Draining and
// decommissioned nodes are excluded here — one check covers every
// assignment path — while their in-flight tasks keep completing normally.
func (m *execManager) assignable(i int) bool {
	return m.alive[i] && !m.blacklisted[i] && !m.suspected[i] && m.admin[i] == adminActive
}

// anyAssignable reports whether any executor can still receive tasks.
func (m *execManager) anyAssignable() bool {
	for i := range m.alive {
		if m.assignable(i) {
			return true
		}
	}
	return false
}

// otherFree reports whether any executor besides i has a free slot.
func (m *execManager) otherFree(i int) bool {
	for j := range m.alive {
		if j != i && m.assignable(j) && m.inflight[j] < m.limits[j] {
			return true
		}
	}
	return false
}

// launched records one task assignment to executor i on behalf of jobID.
func (m *execManager) launched(i, jobID int) {
	if a := m.eng.aud; a != nil {
		a.SlotLaunched(i, jobID)
	}
	m.inflight[i]++
	m.inflightJob[i][jobID]++
	m.eng.jobs[jobID].running++
}

// completed records one reported attempt completion from executor i. A
// draining node whose last in-flight task just finished has quiesced; the
// autoscaler is told, and defers the decommission to a same-instant kernel
// event so it never mutates scheduler state mid-completion-handler.
func (m *execManager) completed(i, jobID int) {
	if a := m.eng.aud; a != nil {
		a.SlotReleased(i, jobID)
	}
	m.inflight[i]--
	m.inflightJob[i][jobID]--
	m.eng.jobs[jobID].running--
	if m.inflight[i] == 0 && m.admin[i] == adminDraining && m.eng.auto != nil {
		m.eng.auto.drainQuiesced(i)
	}
}

// noteFailure advances the executor's failure streak and blacklists it
// after blacklistAfter consecutive failures — provided at least one other
// executor remains assignable.
func (m *execManager) noteFailure(exec, jobID, stage int) {
	m.failStreak[exec]++
	if m.eng.cfg.blacklistAfter <= 0 || m.blacklisted[exec] || m.failStreak[exec] < m.eng.cfg.blacklistAfter {
		return
	}
	for i := range m.alive {
		if i != exec && m.assignable(i) {
			m.blacklisted[exec] = true
			m.eng.trace(TraceEvent{Type: TraceBlacklist, Job: jobID, Stage: stage, Task: -1, Exec: exec,
				Detail: fmt.Sprintf("%d consecutive failures", m.failStreak[exec])})
			return
		}
	}
}

// liftStranded lifts every live executor's blacklisting once none is
// assignable: the refuge noteFailure counted may have been dead, not yet
// detected, and the job would be stranded behind the blacklist.
func (m *execManager) liftStranded() {
	if m.anyAssignable() {
		return
	}
	for i, b := range m.blacklisted {
		if b && m.alive[i] {
			m.blacklisted[i], m.failStreak[i] = false, 0
			m.eng.trace(TraceEvent{Type: TraceBlacklistLift, Job: -1, Stage: -1, Task: -1, Exec: i,
				Detail: "no other executor assignable"})
		}
	}
}

// markLost resets the dead executor's driver-side state, returning its
// in-flight slots to the owning jobs' running counts.
func (m *execManager) markLost(exec, epoch int) {
	if m.eng.auto != nil {
		// Bill the elapsed interval at the old live count before it drops.
		m.eng.auto.account()
		// A node dying mid-drain will never quiesce; it leaves the billed
		// set now, and its loss (requeue + lineage) is processed by the
		// caller exactly as for any crash.
		if m.admin[exec] == adminDraining {
			m.admin[exec] = adminDown
		}
	}
	m.alive[exec] = false
	m.epochs[exec] = epoch
	m.limits[exec] = 0
	if m.eng.bug != bugSkipSlotReclaim {
		if a := m.eng.aud; a != nil {
			a.SlotsReclaimed(exec, m.inflight[exec])
		}
		m.inflight[exec] = 0
		for jobID, n := range m.inflightJob[exec] {
			m.eng.jobs[jobID].running -= n
		}
		clear(m.inflightJob[exec])
	}
	m.failStreak[exec] = 0
	m.blacklisted[exec] = false
	m.suspected[exec] = false
	m.fencing[exec] = false
	m.cancelTimers(exec)
}

// markJoined re-admits a restarted (or fenced-and-rejoined) executor with a
// clean record and a freshly armed failure detector.
func (m *execManager) markJoined(exec, epoch int) {
	if m.eng.auto != nil {
		m.eng.auto.account()
	}
	m.alive[exec] = true
	m.epochs[exec] = epoch
	if a := m.eng.aud; a != nil {
		a.ExecutorEpoch(exec, epoch)
	}
	m.failStreak[exec] = 0
	m.blacklisted[exec] = false
	m.suspected[exec] = false
	m.fencing[exec] = false
	m.armDetector(exec)
}
