// Package invariant is the engine's audit plane: an engine.Audit
// implementation that mirrors the driver's structural state machines from
// the hook stream and flags any transition the design forbids. It is the
// runtime oracle behind internal/hunt — the committed invariants
// (conservation, exactly-once, epoch fencing, detector legality) become
// checkable properties of *any* scenario, not just the hand-written tests.
//
// The auditor is purely observational. It never touches the kernel, the
// trace sink, or engine state, so attaching it cannot perturb a run: the
// event log is byte-identical with audit on and off (regression-tested).
//
// Rules checked online:
//
//   - slot-conservation: every launch is matched by exactly one release or
//     one loss-time reclaim; the driver's reclaim count equals the mirror's
//     in-flight count; an exec_lost/decommission event may not leave booked
//     slots behind.
//   - assignment-legality: no task is booked onto a dead, suspected,
//     blacklisted, draining, or decommissioned executor.
//   - epoch-monotonic: every (re)join carries a strictly increasing
//     incarnation epoch.
//   - suspect-legality: suspicion is raised only on live unsuspected
//     executors and cleared only when standing.
//   - heartbeat-legality: a heartbeat-timeout loss declaration
//     (engine.DetailHeartbeatTimeout) requires
//     standing suspicion (or a clear at the same instant — the benign
//     beat-vs-declaration mailbox race); fences are ordered only for
//     executors the driver already declared dead.
//   - drain-legality: drain targets an active executor; decommission
//     requires a draining executor with zero booked slots.
//   - shuffle-exactly-once: per (job, stage, task), a first registration
//     is accepted once, duplicates are only verdicted against a live
//     registration, and recovery only replaces an output lost to a node.
//   - byte-conservation: the job report's I/O totals equal the sum of the
//     accepted per-task metrics.
//
// The hooks that fire per task — slot launch and release, shuffle
// registration, task acceptance — make no map operation once their coverage
// signals are in: the exactly-once mirror is a ledger per (job, stage), a
// slice of 8-byte records indexed by task like the registry's own
// keyState.slot, found through a slice indexed by job and stage ID. A
// finished job's ledgers, and at BeginRun all of them, are kept as spares
// for the stages that register next.
//
// Scenario expect/SLO assertions join the same stream via Flag (the
// scenario compiler calls it for each failed check when the setup carries
// an auditor), so hunt treats SLO breaches and structural violations
// uniformly.
package invariant

import (
	"fmt"
	"slices"
	"sort"

	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/spares"
)

// Violation is one observed breach of a structural invariant.
type Violation struct {
	// Rule names the invariant ("slot-conservation", "epoch-monotonic",
	// "expect:max_runtime_sec", ...).
	Rule string
	// Run is the 1-based engine run (matrix scenarios run many engines
	// through one auditor).
	Run int
	// Offset is the 0-based trace-event index within the run at which the
	// violation was detected (-1 when flagged outside the event stream,
	// e.g. a hook with no event or a post-run expect failure).
	Offset int
	// At is the virtual time of the most recent trace event.
	At float64
	// Exec and Job locate the violation where applicable (-1 otherwise).
	Exec, Job int
	// Detail is the human-readable account of what was observed.
	Detail string
}

func (v Violation) String() string {
	where := ""
	if v.Exec >= 0 {
		where = fmt.Sprintf(" exec %d", v.Exec)
	}
	if v.Job >= 0 {
		where += fmt.Sprintf(" job %d", v.Job)
	}
	return fmt.Sprintf("run %d offset %d @%.3fs%s: %s: %s", v.Run, v.Offset, v.At, where, v.Rule, v.Detail)
}

// maxViolations caps recorded violations per auditor; a broken invariant
// can otherwise fire on every subsequent event. The total count is still
// tracked.
const maxViolations = 256

const (
	adminActive = iota
	adminDraining
	adminDown
)

// execMirror is the auditor's driver-view model of one executor.
type execMirror struct {
	alive       bool
	suspected   bool
	blacklisted bool
	admin       int
	epoch       int
	inflight    int
	// clearedAt records the instant of the last suspicion clear, to admit
	// the benign beat-vs-declaration same-instant mailbox race.
	clearedAt  float64
	hasCleared bool
}

// jobMirror is the auditor's view of one job: the I/O its accepted tasks
// reported, and one shuffle ledger per stage that has registered output.
type jobMirror struct {
	diskRead, diskWrite, net     int64
	fetchRetries, checksumFailed int
	tasks                        int
	// ledgers[stage] mirrors the stage's map outputs, indexed by task: the
	// mirror of the driver's keyState. It is empty until the stage's first
	// registration and grows to the highest task index seen.
	ledgers [][]shuffleMirror
}

// shuffleMirror is the exactly-once rule's record of one map task's output.
type shuffleMirror struct {
	node       int32
	registered bool
	lost       bool
}

// signal names a coverage signal that fires on the per-task hooks. Each is
// added to coverage the first time it fires and only checked against a flag
// afterwards, so those hooks hash nothing.
type signal int

const (
	sigSlotLaunch signal = iota
	sigSlotRelease
	sigShuffleAccepted
	sigShuffleDuplicate
	sigShuffleRecovered
	numSignals
)

var signalNames = [numSignals]string{
	sigSlotLaunch:       "slot:launch",
	sigSlotRelease:      "slot:release",
	sigShuffleAccepted:  "shuffle:accepted",
	sigShuffleDuplicate: "shuffle:duplicate",
	sigShuffleRecovered: "shuffle:recovered",
}

// Auditor implements engine.Audit. One auditor may observe many sequential
// engine runs (a matrix scenario); per-run mirrors reset at BeginRun while
// violations and coverage accumulate. It is not safe for concurrent
// engines: runs going side by side observe through children (Fork), which
// Join folds back in the order the runs would have gone one after another.
//
// The per-run state is sized by the runs it has seen and kept across them:
// jobs is indexed by job ID (dense per engine), a finished job's ledgers go
// to spare for the next stage to register, and BeginRun returns every
// ledger there. A second run of the same shape allocates nothing.
type Auditor struct {
	run     int
	offset  int
	at      float64
	dropped int

	violations []Violation
	coverage   map[string]struct{}
	fired      [numSignals]bool
	// eventTypes holds the trace-event types whose "event:<type>" signal is
	// already in coverage, so the signal is spelled out once per type, not
	// once per event.
	eventTypes map[string]struct{}

	execs []execMirror
	jobs  []jobMirror
	spare [][]shuffleMirror
}

var _ engine.ForkableAudit = (*Auditor)(nil)

// New returns an empty auditor ready to attach via Options.Audit (or
// exp.Setup.Audit / scenario compilation).
func New() *Auditor {
	return &Auditor{coverage: map[string]struct{}{}, eventTypes: map[string]struct{}{}}
}

// Spare returns an empty auditor for a caller that releases it when done:
// one that Release or Join gave back, or else a new one. A recycled auditor
// keeps its mirrors and spare ledgers, so its next run allocates what a second
// run of one auditor does. An auditor that is never released comes from New,
// so that it does not take a warm one off the spares for good.
func Spare() *Auditor {
	if a, ok := spareAuditors.Take(); ok {
		return a
	}
	return New()
}

// spareAuditors holds the auditors Release and Join took back. Its cap, 16 a
// processor, is four times the other spare stacks': a fan-out call that ends
// before the calls below it have joined keeps its child until they have, and
// a hunt runs its specs' fan-outs side by side. Hunting the 20 specs of the
// benchmark's hunt_smoke held up to 31 auditors at once at GOMAXPROCS 2, and
// at 4 a processor most of them were dropped and grown again on every pass.
var spareAuditors = spares.New[*Auditor](16)

// Fork implements engine.ForkableAudit: a spare auditor for a run going
// beside the ones a observes.
func (a *Auditor) Fork() engine.Audit { return Spare() }

// Join implements engine.ForkableAudit: child's runs count after a's, as if
// a had observed them. Their violations follow a's with Run renumbered, under
// the same recording cap — what passes it adds to Dropped, as do the child's
// own dropped ones — and their coverage joins a's. child, which Fork must have
// returned, is then released.
func (a *Auditor) Join(child engine.Audit) {
	c := child.(*Auditor)
	for _, v := range c.violations {
		if len(a.violations) >= maxViolations {
			a.dropped++
			continue
		}
		v.Run += a.run
		a.violations = append(a.violations, v)
	}
	a.dropped += c.dropped
	for sig := range c.coverage {
		a.coverage[sig] = struct{}{}
	}
	for typ := range c.eventTypes {
		a.eventTypes[typ] = struct{}{}
	}
	for s, fired := range c.fired {
		a.fired[s] = a.fired[s] || fired
	}
	if c.run > 0 {
		a.offset, a.at = c.offset, c.at
	}
	a.run += c.run
	c.Release()
}

// Release empties a, which its owner no longer reads, and gives it back to
// the spares Spare takes from.
func (a *Auditor) Release() {
	a.run, a.offset, a.at, a.dropped = 0, 0, 0, 0
	clear(a.violations)
	a.violations = a.violations[:0]
	clear(a.coverage)
	clear(a.eventTypes)
	a.fired = [numSignals]bool{}
	spareAuditors.Put(a)
}

// Violations returns a copy of the recorded violations in detection order.
func (a *Auditor) Violations() []Violation {
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// Dropped reports violations beyond the recording cap.
func (a *Auditor) Dropped() int { return a.dropped }

// Coverage returns the sorted set of behavior signals observed so far:
// every reached trace-event type plus audit-plane state transitions
// ("slot:reclaim", "shuffle:recovered", "epoch:rejoin", ...). hunt uses it
// as the corpus-keeping signal.
func (a *Auditor) Coverage() []string {
	out := make([]string, 0, len(a.coverage))
	for s := range a.coverage {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Flag records an externally detected violation (scenario expect/SLO
// assertion failures) into the same stream as the structural rules.
func (a *Auditor) Flag(rule, detail string) {
	a.violate(rule, -1, -1, "%s", detail)
}

func (a *Auditor) cover(sig string) { a.coverage[sig] = struct{}{} }

// fire covers one of the fixed signals.
func (a *Auditor) fire(s signal) {
	if !a.fired[s] {
		a.fired[s] = true
		a.cover(signalNames[s])
	}
}

func (a *Auditor) violate(rule string, exec, jobID int, format string, args ...any) {
	if len(a.violations) >= maxViolations {
		a.dropped++
		return
	}
	off := a.offset - 1 // index of the event being processed, if any
	if off < 0 {
		off = -1
	}
	a.violations = append(a.violations, Violation{
		Rule:   rule,
		Run:    a.run,
		Offset: off,
		At:     a.at,
		Exec:   exec,
		Job:    jobID,
		Detail: fmt.Sprintf(format, args...),
	})
}

// BeginRun implements engine.Audit.
func (a *Auditor) BeginRun(active []bool) {
	a.run++
	a.offset = 0
	a.at = 0
	a.execs = slices.Grow(a.execs[:0], len(active))[:len(active)]
	for i, up := range active {
		if up {
			a.execs[i] = execMirror{alive: true}
		} else {
			a.execs[i] = execMirror{admin: adminDown}
		}
	}
	for id := range a.jobs {
		a.clearJob(&a.jobs[id])
	}
}

// job returns the mirror of job id, extending jobs to it.
func (a *Auditor) job(id int) *jobMirror {
	for len(a.jobs) <= id {
		a.jobs = append(a.jobs, jobMirror{})
	}
	return &a.jobs[id]
}

// clearJob zeroes jm, as if its job had not started, and moves its ledgers to
// the spare list.
func (a *Auditor) clearJob(jm *jobMirror) {
	for stage, outs := range jm.ledgers {
		if cap(outs) > 0 {
			a.spare = append(a.spare, outs[:0])
		}
		jm.ledgers[stage] = nil
	}
	*jm = jobMirror{ledgers: jm.ledgers[:0]}
}

// entry returns the ledger record of task for (jobID, stage), growing the
// stage's ledger to cover it. A ledger that needs a bigger array — a stage's
// first registration needs one — takes the smallest spare that holds the task,
// if any, and leaves its old array in its place.
func (a *Auditor) entry(jobID, stage, task int) *shuffleMirror {
	jm := a.job(jobID)
	for len(jm.ledgers) <= stage {
		jm.ledgers = append(jm.ledgers, nil)
	}
	outs := jm.ledgers[stage]
	if n := len(outs); task >= n {
		if task >= cap(outs) {
			if i := a.fittingSpare(task + 1); i < 0 {
				outs = slices.Grow(outs, task+1-n)
			} else {
				bigger := a.spare[i][:n]
				copy(bigger, outs)
				if cap(outs) > 0 {
					a.spare[i] = outs[:0]
				} else {
					a.spare = slices.Delete(a.spare, i, i+1)
				}
				outs = bigger
			}
		}
		outs = outs[:task+1]
		clear(outs[n:])
		jm.ledgers[stage] = outs
	}
	return &outs[task]
}

// fittingSpare returns the index of the smallest spare ledger array of at
// least size records, or -1.
func (a *Auditor) fittingSpare(size int) int {
	best := -1
	for i, s := range a.spare {
		if cap(s) >= size && (best < 0 || cap(s) < cap(a.spare[best])) {
			best = i
		}
	}
	return best
}

// EndRun implements engine.Audit.
func (a *Auditor) EndRun() {}

// Event implements engine.Audit: it advances the mirrors through the
// driver-visible state machines and checks transition legality.
func (a *Auditor) Event(ev engine.TraceEvent) {
	a.offset++
	a.at = ev.At
	if _, seen := a.eventTypes[ev.Type]; !seen {
		a.eventTypes[ev.Type] = struct{}{}
		a.cover("event:" + ev.Type)
	}
	if ev.Exec < 0 || ev.Exec >= len(a.execs) {
		return
	}
	x := &a.execs[ev.Exec]
	switch ev.Type {
	case engine.TraceExecSuspect:
		if ev.Detail == engine.DetailSuspectCleared {
			if !x.suspected {
				a.violate("suspect-legality", ev.Exec, -1, "suspicion cleared with none standing")
			}
			x.suspected = false
			x.clearedAt = ev.At
			x.hasCleared = true
			a.cover("suspect:clear")
		} else {
			if !x.alive {
				a.violate("suspect-legality", ev.Exec, -1, "suspicion raised on executor already declared dead")
			}
			if x.suspected {
				a.violate("suspect-legality", ev.Exec, -1, "suspicion raised while already suspected")
			}
			x.suspected = true
			a.cover("suspect:raise")
		}
	case engine.TraceExecLost:
		if ev.Detail == engine.DetailHeartbeatTimeout && !x.suspected && !(x.hasCleared && x.clearedAt == ev.At) {
			a.violate("heartbeat-legality", ev.Exec, -1,
				"loss declared by heartbeat timeout without standing suspicion")
		}
		if x.inflight != 0 {
			a.violate("slot-conservation", ev.Exec, -1,
				"executor declared lost with %d booked slots never reclaimed", x.inflight)
			x.inflight = 0
		}
		x.alive = false
		x.suspected = false
		a.cover("lost:" + ev.Detail)
	case engine.TraceExecFence:
		if x.alive {
			a.violate("heartbeat-legality", ev.Exec, -1, "fence ordered for an executor the driver considers live")
		}
		a.cover("fence")
	case engine.TraceBlacklist:
		x.blacklisted = true
		a.cover("blacklist")
	case engine.TraceBlacklistLift:
		x.blacklisted = false
		a.cover("blacklist:lift")
	case engine.TraceDrain:
		if x.admin != adminActive {
			a.violate("drain-legality", ev.Exec, -1, "drain ordered for a non-active executor")
		}
		x.admin = adminDraining
		a.cover("drain")
	case engine.TraceDecommission:
		if x.admin != adminDraining {
			a.violate("drain-legality", ev.Exec, -1, "decommission of an executor that was not draining")
		}
		if x.inflight != 0 {
			a.violate("slot-conservation", ev.Exec, -1,
				"executor decommissioned with %d booked slots never reclaimed", x.inflight)
			x.inflight = 0
		}
		x.admin = adminDown
		a.cover("decommission")
	case engine.TraceScaleUp:
		if x.admin != adminDown {
			a.violate("drain-legality", ev.Exec, -1, "scale-up provisioning of an executor not decommissioned")
		}
		a.cover("scale-up")
	}
}

// SlotLaunched implements engine.Audit.
func (a *Auditor) SlotLaunched(exec, jobID int) {
	x := &a.execs[exec]
	switch {
	case !x.alive:
		a.violate("assignment-legality", exec, jobID, "task booked onto a dead executor")
	case x.suspected:
		a.violate("assignment-legality", exec, jobID, "task booked onto a suspected executor")
	case x.blacklisted:
		a.violate("assignment-legality", exec, jobID, "task booked onto a blacklisted executor")
	case x.admin != adminActive:
		a.violate("assignment-legality", exec, jobID, "task booked onto a draining or decommissioned executor")
	}
	x.inflight++
	a.fire(sigSlotLaunch)
}

// SlotReleased implements engine.Audit.
func (a *Auditor) SlotReleased(exec, jobID int) {
	x := &a.execs[exec]
	if x.inflight == 0 {
		a.violate("slot-conservation", exec, jobID, "slot released with no matching launch")
		return
	}
	x.inflight--
	a.fire(sigSlotRelease)
}

// SlotsReclaimed implements engine.Audit.
func (a *Auditor) SlotsReclaimed(exec, inflight int) {
	x := &a.execs[exec]
	if inflight != x.inflight {
		a.violate("slot-conservation", exec, -1,
			"driver reclaimed %d slots but the launch/release ledger holds %d", inflight, x.inflight)
	}
	x.inflight = 0
	x.alive = false
	if inflight > 0 {
		a.cover("slot:reclaim")
	}
}

// ExecutorEpoch implements engine.Audit.
func (a *Auditor) ExecutorEpoch(exec, epoch int) {
	x := &a.execs[exec]
	if epoch <= x.epoch {
		a.violate("epoch-monotonic", exec, -1,
			"executor rejoined at epoch %d, not above the last seen epoch %d", epoch, x.epoch)
	}
	if x.epoch > 0 || epoch > 1 {
		a.cover("epoch:rejoin")
	}
	x.epoch = epoch
	x.alive = true
	x.suspected = false
	x.blacklisted = false
	if x.admin == adminDown {
		// Autoscale activation: the only legal join of a decommissioned
		// executor readmits it to active duty.
		x.admin = adminActive
	}
}

// ShuffleRegistered implements engine.Audit.
func (a *Auditor) ShuffleRegistered(jobID, stage, task, node int, outcome engine.ShuffleOutcome) {
	if outcome == engine.ShuffleEmpty {
		return
	}
	m := a.entry(jobID, stage, task)
	switch outcome {
	case engine.ShuffleAccepted:
		if m.registered && !m.lost {
			a.violate("shuffle-exactly-once", -1, jobID,
				"stage %d task %d: second registration accepted over a live output", stage, task)
		}
		if m.registered && m.lost {
			a.violate("shuffle-exactly-once", -1, jobID,
				"stage %d task %d: lost output replaced without recovery accounting", stage, task)
		}
		*m = shuffleMirror{node: int32(node), registered: true}
		a.fire(sigShuffleAccepted)
	case engine.ShuffleDuplicate:
		if !m.registered {
			a.violate("shuffle-exactly-once", -1, jobID,
				"stage %d task %d: duplicate verdict for an output never registered", stage, task)
		} else if m.lost {
			a.violate("shuffle-exactly-once", -1, jobID,
				"stage %d task %d: duplicate verdict while the registered output is lost", stage, task)
		}
		a.fire(sigShuffleDuplicate)
	case engine.ShuffleRecovered:
		if !m.registered || !m.lost {
			a.violate("shuffle-exactly-once", -1, jobID,
				"stage %d task %d: recovery verdict without a lost registration", stage, task)
		}
		*m = shuffleMirror{node: int32(node), registered: true}
		a.fire(sigShuffleRecovered)
	}
}

// ShuffleNodeLost implements engine.Audit: every live output on node, in
// every stage ledger of every job not yet finished, is marked lost.
func (a *Auditor) ShuffleNodeLost(node int) {
	for id := range a.jobs {
		for _, outs := range a.jobs[id].ledgers {
			for i := range outs {
				if m := &outs[i]; m.registered && int(m.node) == node {
					m.lost = true
				}
			}
		}
	}
	a.cover("shuffle:node-lost")
}

// TaskAccepted implements engine.Audit.
func (a *Auditor) TaskAccepted(jobID int, m job.TaskMetrics) {
	jm := a.job(jobID)
	jm.diskRead += m.DiskReadBytes
	jm.diskWrite += m.DiskWriteBytes
	jm.net += m.NetBytes
	jm.fetchRetries += m.FetchRetries
	jm.checksumFailed += m.ChecksumFailovers
	jm.tasks++
}

// JobFinished implements engine.Audit: the report's accumulated I/O must
// equal the sum of the per-task metrics the driver accepted.
func (a *Auditor) JobFinished(rep *engine.JobReport) {
	jm := a.job(rep.ID)
	check := func(what string, got, want int64) {
		if got != want {
			a.violate("byte-conservation", -1, rep.ID,
				"report %s %d does not equal the %d task-attributed total %d", what, got, jm.tasks, want)
		}
	}
	check("disk-read bytes", rep.DiskReadBytes, jm.diskRead)
	check("disk-write bytes", rep.DiskWriteBytes, jm.diskWrite)
	check("network bytes", rep.NetBytes, jm.net)
	check("fetch retries", int64(rep.FetchRetries), int64(jm.fetchRetries))
	check("checksum failovers", int64(rep.ChecksumFailovers), int64(jm.checksumFailed))
	a.clearJob(jm)
}
