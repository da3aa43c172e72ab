package engine

import (
	"errors"
	"fmt"
	"time"

	"sae/internal/autoscale"
	"sae/internal/sim"
)

// AutoscaleConfig enables elastic cluster sizing: the engine starts with
// InitialNodes active executors and grows or shrinks the active set every
// autoscaleInterval. Scale-up activates a pre-provisioned (decommissioned)
// node after provisionDelay — the cloud VM boot analogue — and joins it
// through the same path a restarted executor uses. Scale-down drains: the
// node stops receiving assignments, finishes its in-flight tasks, keeps
// serving any map output a running job still references, and is then
// decommissioned — the failure detector never fires. Only a node dying
// mid-drain falls back to the requeue/lineage machinery.
type AutoscaleConfig struct {
	// Policy plans target node counts. Required.
	Policy autoscale.Policy
	// InitialNodes is how many executors start active (0 selects all). The
	// cluster size caps every plan; the floor is autoscaleMinNodes.
	InitialNodes int
}

// The autoscaler's actuation: it plans every autoscaleInterval and never
// below autoscaleMinNodes, and a requested node joins provisionDelay later.
// Successive scale-ups are a tick apart at least, scale-downs
// scaleDownCooldown: growing is cheap to undo, shrinking churns shuffle
// state.
const (
	autoscaleInterval = 10 * time.Second
	autoscaleMinNodes = 2
	provisionDelay    = 15 * time.Second
	scaleDownCooldown = time.Minute
)

// adminState is the autoscaler's administrative view of one executor,
// orthogonal to liveness: Active nodes accept work, Draining nodes finish
// what they have, Down nodes are decommissioned capacity awaiting scale-up.
// Admin transitions are owned by the autoscale controller alone — a
// fence-and-rejoin never un-drains a node.
type adminState int

const (
	adminActive adminState = iota
	adminDraining
	adminDown
)

// autoCtl actuates the autoscale policy on a live engine: it is the
// execute (and part of the monitor) step of the cluster-level MAPE-K loop,
// with cooldowns, provision delays and drain tracking. All of its state
// changes happen on the sim clock, so runs stay deterministic.
type autoCtl struct {
	eng *Engine
	cfg AutoscaleConfig

	// pendingNode marks executors between scale-up decision and join.
	pendingNode []bool
	pending     int

	// lastDown gates the scale-down cooldown; -1 means "never".
	lastDown time.Duration

	// Node-seconds accounting: nodeSec integrates the em.alive count over
	// sim time (provisioning nodes bill only once joined).
	lastAt  time.Duration
	nodeSec float64
	peak    int

	activations, drains, decommissions int
}

// AutoscaleReport summarizes one run's elasticity activity.
type AutoscaleReport struct {
	// Policy is the planning policy's name.
	Policy string
	// NodeSeconds is the integral of live node count over the run — the
	// run's node-hours cost in seconds.
	NodeSeconds float64
	// PeakNodes is the largest live node count observed.
	PeakNodes int
	// FinalNodes is the live node count when the run ended.
	FinalNodes int
	// Activations/Drains/Decommissions count scale events.
	Activations, Drains, Decommissions int
}

func (r *AutoscaleReport) String() string {
	return fmt.Sprintf("%s: %.1f node-hours (peak %d, final %d), %d scale-up(s), %d drain(s), %d decommission(s)",
		r.Policy, r.NodeSeconds/3600, r.PeakNodes, r.FinalNodes,
		r.Activations, r.Drains, r.Decommissions)
}

// AutoscaleReport returns the run's elasticity summary, or nil when the
// engine has no autoscaler. Valid after Wait returns.
func (e *Engine) AutoscaleReport() *AutoscaleReport {
	if e.auto == nil {
		return nil
	}
	c := e.auto
	return &AutoscaleReport{
		Policy:        c.cfg.Policy.Name(),
		NodeSeconds:   c.nodeSec,
		PeakNodes:     c.peak,
		FinalNodes:    c.serving(),
		Activations:   c.activations,
		Drains:        c.drains,
		Decommissions: c.decommissions,
	}
}

// newAutoCtl validates and applies defaults, marks the executors beyond
// InitialNodes decommissioned, and arms the planning tick.
func newAutoCtl(e *Engine, cfg AutoscaleConfig) (*autoCtl, error) {
	if cfg.Policy == nil {
		return nil, errors.New("engine: Autoscale.Policy is required")
	}
	n := len(e.executors)
	if cfg.InitialNodes <= 0 || cfg.InitialNodes > n {
		cfg.InitialNodes = n
	}
	if autoscaleMinNodes > n {
		return nil, fmt.Errorf("engine: autoscale floor %d > %d nodes", autoscaleMinNodes, n)
	}
	c := &autoCtl{
		eng:         e,
		cfg:         cfg,
		pendingNode: make([]bool, n),
		lastDown:    -1,
	}
	// Executors beyond the initial set start decommissioned: process down,
	// no heartbeats, detector unarmed (NewEngine skips dead executors), no
	// loss declared. Their DFS datanodes hold replicas that the fault model
	// reports unreachable until activation.
	for i := cfg.InitialNodes; i < n; i++ {
		e.executors[i].alive = false
		e.em.alive[i] = false
		e.em.admin[i] = adminDown
		e.em.limits[i] = 0
	}
	var tick sim.Event
	tick = e.k.Every(autoscaleInterval, func() {
		if e.done.Load() {
			tick.Cancel()
			return
		}
		c.tick()
	})
	return c, nil
}

// serving counts the live executors (active or draining) — the billed set.
func (c *autoCtl) serving() int {
	n := 0
	for _, up := range c.eng.em.alive {
		if up {
			n++
		}
	}
	return n
}

// account integrates node-seconds up to now at the current live count. It
// must run BEFORE any transition that changes the count; markLost and
// markJoined call it, so crash/restart paths stay billed correctly too.
func (c *autoCtl) account() {
	now := c.eng.k.Now()
	s := c.serving()
	c.nodeSec += float64(float64(s) * (now - c.lastAt).Seconds())
	c.lastAt = now
	if s > c.peak {
		c.peak = s
	}
}

// snapshot builds the policy's monitor view.
func (c *autoCtl) snapshot() autoscale.Snapshot {
	e := c.eng
	em := e.em
	snap := autoscale.Snapshot{
		Now:            e.k.Now(),
		PendingNodes:   c.pending,
		CompletedTasks: e.tasksDone,
		QueuedTasks:    e.sched.pendingTotal(-1),
	}
	for i := range em.alive {
		if !em.alive[i] {
			continue
		}
		switch em.admin[i] {
		case adminActive:
			snap.ActiveNodes++
			snap.TotalSlots += em.limits[i]
			snap.BusySlots += em.inflight[i]
		case adminDraining:
			snap.DrainingNodes++
		}
	}
	for _, js := range e.jobs {
		if js.started && !js.done && js.running == 0 {
			snap.QueuedJobs++
		}
	}
	return snap
}

// tick is one MAPE-K iteration: monitor (snapshot), analyze+plan (the
// policy), execute (clamp, cooldown, activate or drain).
func (c *autoCtl) tick() {
	e := c.eng
	c.account()
	target, reason := c.cfg.Policy.Target(c.snapshot())
	target = min(max(target, autoscaleMinNodes), len(e.executors))
	cur := c.activeAndPending()
	now := e.k.Now()
	switch {
	case target > cur:
		c.scaleUp(target-cur, reason)
	case target < cur:
		if c.lastDown >= 0 && now-c.lastDown < scaleDownCooldown {
			return
		}
		if c.scaleDown(cur-target, reason) > 0 {
			c.lastDown = now
		}
	}
}

// activeAndPending is the policy-visible current size: admin-active live
// nodes plus provisions in flight. Draining nodes are already leaving.
func (c *autoCtl) activeAndPending() int {
	em := c.eng.em
	n := c.pending
	for i := range em.alive {
		if em.alive[i] && em.admin[i] == adminActive {
			n++
		}
	}
	return n
}

// scaleUp provisions up to want decommissioned nodes (ascending index, for
// determinism).
func (c *autoCtl) scaleUp(want int, reason string) {
	e := c.eng
	em := e.em
	started := 0
	for i := 0; i < len(em.alive) && started < want; i++ {
		if em.admin[i] != adminDown || c.pendingNode[i] || em.alive[i] {
			continue
		}
		c.pendingNode[i] = true
		c.pending++
		c.activations++
		started++
		e.trace(TraceEvent{Type: TraceScaleUp, Job: -1, Stage: -1, Task: -1, Exec: i,
			Detail: fmt.Sprintf("provisioning (%s), online in %s", reason, provisionDelay)})
		e.k.After(provisionDelay, func() { c.activate(i) })
	}
}

// activate brings a provisioned node online: admin-active, process up under
// a fresh epoch, joining through the same execJoin path a restarted
// executor uses (the driver re-sends active stages and arms the detector).
func (c *autoCtl) activate(i int) {
	e := c.eng
	if e.done.Load() {
		return
	}
	c.pendingNode[i] = false
	c.pending--
	em := e.em
	if em.admin[i] != adminDown || em.alive[i] {
		return
	}
	em.admin[i] = adminActive
	ex := e.executors[i]
	ex.alive = true
	ex.epoch++
	e.toDriver.Send(e.cluster.ControlLatency(), driverMsg{kind: driverExecJoin, exec: i, epoch: ex.epoch})
}

// scaleDown drains up to want active nodes (descending index, so low-index
// nodes — where static experiments put their data — stay longest) and
// returns how many it started.
func (c *autoCtl) scaleDown(want int, reason string) int {
	e := c.eng
	em := e.em
	stopped := 0
	for i := len(em.alive) - 1; i >= 0 && stopped < want; i-- {
		if !em.alive[i] || em.admin[i] != adminActive {
			continue
		}
		em.admin[i] = adminDraining
		c.drains++
		stopped++
		e.trace(TraceEvent{Type: TraceDrain, Job: -1, Stage: -1, Task: -1, Exec: i,
			Detail: fmt.Sprintf("draining %d in-flight task(s) (%s)", em.inflight[i], reason)})
		if c.drainComplete(i) {
			c.scheduleDecommission(i)
		}
	}
	return stopped
}

// drainComplete reports whether draining node i has fully quiesced: no
// in-flight tasks AND no registered map output an unfinished job still
// references. A graceful drain must not destroy shuffle data a reduce is
// about to fetch — the node idles as a pure shuffle server until its
// consumers finish (finishJob flushes such waiters when it drops the job's
// registrations).
func (c *autoCtl) drainComplete(i int) bool {
	e := c.eng
	return e.em.inflight[i] == 0 && !e.shuffle.hasOutput(e.executors[i].node.ID)
}

// drainQuiesced is the drain-completion hook, called by execManager when a
// draining node's in-flight count hits zero. The decommission itself is
// deferred to a same-instant kernel event so it never runs in the middle of
// the completion handler that is still registering the final task's output.
func (c *autoCtl) drainQuiesced(i int) {
	if c.eng.em.admin[i] == adminDraining {
		c.scheduleDecommission(i)
	}
}

// flushDrains synchronously decommissions every draining node whose last
// obligation just lapsed. finishJob calls it after dropping the finished
// job's shuffle registrations — by then nothing on the node is mid-flight,
// so the deferral dance is unnecessary (and for the final job it would come
// too late: the driver loop exits before a same-instant event could fire).
func (c *autoCtl) flushDrains() {
	if c == nil {
		return
	}
	em := c.eng.em
	for i := range em.alive {
		if em.admin[i] == adminDraining && em.alive[i] && c.drainComplete(i) {
			c.decommission(i)
		}
	}
}

func (c *autoCtl) scheduleDecommission(i int) {
	c.eng.k.At(c.eng.k.Now(), func() { c.decommission(i) })
}

// decommission retires a quiesced draining node without tripping the
// failure detector: the executor process shuts down under a fresh epoch
// (in-flight control messages go stale) and the driver books it out exactly
// as markLost does — but with no loss declared, so LostExecutors and
// Suspected never tick. drainComplete guarantees the node's shuffle files
// are no longer referenced, so the removeNode below invalidates nothing a
// running stage would miss.
func (c *autoCtl) decommission(i int) {
	e := c.eng
	em := e.em
	// The process itself must be up too: a node that crashed mid-drain
	// before the driver declared it lost is the failure detector's to book
	// out, not a decommission.
	if e.done.Load() || !em.alive[i] || !e.executors[i].alive || em.admin[i] != adminDraining || !c.drainComplete(i) {
		return
	}
	ex := e.executors[i]
	c.account()
	em.admin[i] = adminDown
	ex.shutdown()
	em.markLost(i, ex.epoch)
	e.removeShuffleNode(ex.node.ID)
	e.trace(TraceEvent{Type: TraceDecommission, Job: -1, Stage: -1, Task: -1, Exec: i})
	c.decommissions++
	e.sched.reclaimNode(i)
	e.sched.assignAll()
}

// capacityPending reports whether the autoscaler can still add capacity —
// provisions in flight, or decommissioned nodes it may activate on a later
// tick. A fully-dark cluster with an autoscaler attached waits for it
// rather than declaring the run fatal.
func (c *autoCtl) capacityPending() bool {
	if c == nil {
		return false
	}
	if c.pending > 0 {
		return true
	}
	em := c.eng.em
	for i := range em.alive {
		if em.admin[i] == adminDown && !em.alive[i] && !c.pendingNode[i] {
			return true
		}
	}
	return false
}
