// Package engine is the mini dataflow engine the adaptive executors plug
// into: a DAG-driven driver with a multi-job task scheduler, per-node
// executors with resizable worker pools, an HDFS-like input layer and a
// shuffle subsystem, all running on the deterministic cluster simulator. It
// reproduces the Spark mechanics the paper modifies — per-stage task waves,
// slot accounting in the driver, and the executor→scheduler thread-count
// update protocol — and, like Spark, splits the driver into a stage-DAG
// manager (dag.go), a task scheduler with pluggable FIFO/Fair inter-job
// policies (scheduler.go), and an executor manager (execmgr.go).
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/conf"
	"sae/internal/device"
	"sae/internal/dfs"
	"sae/internal/engine/job"
	"sae/internal/sim"
	"sae/internal/telemetry"
)

// Input declares a pre-loaded DFS input file.
type Input struct {
	Name string
	Size int64
}

// Options configures an engine instance (shared by every job submitted to
// it).
type Options struct {
	// Cluster describes the simulated hardware.
	Cluster cluster.Config
	// Config is the Spark-style configuration registry the run reads its
	// wired parameters from (nil = the catalogue's defaults; see package
	// conf), scheduler.mode among them. Its executor.cores replaces
	// Cluster's CPU cores; BlockSize, when set, wins over its
	// files.maxPartitionBytes.
	Config *conf.Registry
	// BlockSize is the DFS block size (0 = files.maxPartitionBytes).
	BlockSize int64
	// Replication is the DFS replication factor (0 = all nodes, the
	// paper's locality-maximizing setup). A factor above the cluster size
	// means all nodes too; a negative one is an error.
	Replication int
	// Policy sizes executor thread pools. Required.
	Policy job.Policy
	// Faults, if set, is a deterministic chaos schedule: executor crashes
	// (optionally with restart), transient task I/O faults, shuffle fetch
	// failures, node slowdowns, network partitions and replica corruption,
	// all driven off the sim clock (see package chaos).
	Faults *chaos.Plan
	// Autoscale, if set, enables elastic cluster sizing: the engine starts
	// with AutoscaleConfig.InitialNodes active executors and the policy
	// grows or shrinks the active set on a planning interval (see
	// AutoscaleConfig).
	Autoscale *AutoscaleConfig
	// Inputs are created in the DFS before the first job starts.
	Inputs []Input
	// OnSetup, if set, runs after the engine is assembled and before the
	// simulation starts — use it to attach samplers.
	OnSetup func(e *Engine)
	// Trace, if set, receives the engine's event log as JSON lines (the
	// Spark event-log analogue): a TraceHeader, then one TraceEvent per
	// line with span IDs and the fields that do not apply omitted.
	Trace io.Writer
	// Metrics, if set, attaches the deterministic telemetry plane: the
	// engine registers its instruments (scheduler queues, executor pools,
	// ζ/ε, failure detector, autoscaler) in the registry and samples them
	// every MetricsInterval on the sim clock, so same-seed runs export
	// byte-identical series (see telemetry.Registry's exporters).
	Metrics *telemetry.Registry
	// MetricsInterval is the sampler period (0 selects 5s).
	MetricsInterval time.Duration
	// Audit, if set, attaches the invariant audit plane: the engine calls
	// the hooks synchronously as structural transitions happen (see the
	// Audit interface). Like Metrics, attaching an auditor provably does
	// not perturb the event log — traces stay byte-identical.
	Audit Audit
	// Shards asks for the cluster to be partitioned into that many
	// per-node-group kernels advanced concurrently through conservative
	// lookahead windows (0 or 1 = one kernel). Only options that qualify
	// (see DESIGN.md "Sharded simulation": no observers, Replication 0, a
	// fault plan without crashes or corruption) are sharded — Windowed
	// reports it — and Submit then rejects a job that shuffles, writes
	// output or carries Work; with any other options the engine runs on one
	// kernel. Requires a positive Cluster.ControlLatency, the lookahead
	// bound.
	Shards int
	// MaxVirtualTime and MaxEvents bound the run (0 = unbounded): no event
	// fires at or past MaxVirtualTime, and no more than MaxEvents fire in
	// all. A run that meets either ends there, and Wait returns an error
	// wrapping ErrBudget that names the budget and dumps the driver's
	// state. A budgeted run is not sharded.
	MaxVirtualTime time.Duration
	MaxEvents      uint64
}

// Engine wires the simulated cluster, DFS, shuffle registry and executors,
// and schedules any number of submitted jobs over them.
type Engine struct {
	k *sim.Kernel
	// ss is the shard coordinator, nil when the run is on one kernel;
	// shardOf maps node → owning shard.
	ss        *sim.ShardSet
	shardOf   []int
	opts      Options
	cfg       config // what the run reads of Options.Config
	cluster   *cluster.Cluster
	fs        *dfs.FS
	shuffle   *shuffleRegistry
	executors []*Executor
	toDriver  *sim.Mailbox[driverMsg]
	// driverProc is the driver process, stepped by driver.Step.
	driverProc sim.Proc
	sink       *traceSink
	// tel is the telemetry instrumentation (nil without Options.Metrics;
	// every hook is nil-safe so the default path stays untouched).
	tel *engineTelemetry
	// aud is the invariant audit plane (nil without Options.Audit; every
	// call site nil-guards so the default path stays untouched).
	aud Audit

	em    *execManager
	sched *taskScheduler
	// auto is the elastic-cluster controller (nil without Options.Autoscale).
	auto *autoCtl

	jobs      []*jobState
	completed int
	// tasksDone counts winning task completions engine-wide — the
	// cumulative throughput counter the adaptive autoscale policy
	// differentiates.
	tasksDone int
	// fatal aborts every job (e.g. the whole cluster died with no restart
	// pending); per-job failures live on the jobState instead.
	fatal   error
	started bool
	// bug is the deliberate defect the run plants (see EnableTestBug),
	// read once at NewEngine.
	bug string
	// spares holds the run's task-sized state, the fetch-plan buffers and the
	// machine's storage (DESIGN.md "What a run allocates"). A recycling engine
	// takes them off idleSpares and Wait gives them back; recycle is false on
	// a sharded engine, whose executors run on other goroutines than the
	// driver: its spares are its own, and no plan is put back.
	recycle bool
	spares  *runSpares
	// done flips when the driver finishes; atomic because in sharded runs
	// per-shard housekeeping events (heartbeats, interference streams,
	// slowdown timers) read it from their shard's goroutine.
	done atomic.Bool
}

// JobHandle refers to one submitted job; its report becomes available after
// Engine.Wait returns.
type JobHandle struct {
	js *jobState
}

// Report returns the job's report, or the error that failed it. It is only
// valid after Engine.Wait has returned.
func (h *JobHandle) Report() (*JobReport, error) {
	if h.js.err != nil {
		return nil, h.js.err
	}
	if !h.js.done {
		return nil, fmt.Errorf("engine: job %s did not complete", h.js.spec.Name)
	}
	return &h.js.rep, nil
}

// ErrNoNodes is the error NewEngine wraps when Options.Cluster has fewer than
// one node — a value a -nodes flag can carry, which the CLIs tell from a run
// that failed.
var ErrNoNodes = errors.New("engine: the cluster needs at least one node")

// ErrBudget is the error Wait wraps when Options.MaxVirtualTime or
// Options.MaxEvents ended the run.
var ErrBudget = errors.New("engine: run budget exceeded")

// NewEngine assembles a fresh simulated cluster ready to accept jobs.
func NewEngine(opts Options) (*Engine, error) { return newEngine(opts, nil) }

// newEngine is NewEngine on the spares sp, or on the stack's if sp is nil. A
// sharded engine runs on spares of its own.
func newEngine(opts Options, sp *runSpares) (*Engine, error) {
	cfg := catalogueConfig
	if opts.Config != nil {
		var err error
		if cfg, err = readConfig(opts.Config); err != nil {
			return nil, err
		}
		// Virtual cores are SMT pairs over physical cores, as on the
		// paper's nodes (32 virtual / 16 physical).
		opts.Cluster.CPU.VirtualCores = cfg.cores
		opts.Cluster.CPU.PhysicalCores = max(1, cfg.cores/2)
	}
	if opts.Policy == nil {
		return nil, errors.New("engine: Options.Policy is required")
	}
	if opts.Cluster.Nodes < 1 {
		return nil, fmt.Errorf("%w, got %d", ErrNoNodes, opts.Cluster.Nodes)
	}
	if opts.Replication < 0 {
		return nil, fmt.Errorf("engine: Options.Replication must not be negative, got %d", opts.Replication)
	}
	if opts.BlockSize < 0 {
		return nil, fmt.Errorf("engine: Options.BlockSize must not be negative, got %d", opts.BlockSize)
	}
	if opts.MaxVirtualTime < 0 {
		return nil, fmt.Errorf("engine: Options.MaxVirtualTime must not be negative, got %v", opts.MaxVirtualTime)
	}
	if err := opts.Faults.CheckExecutors(opts.Cluster.Nodes); err != nil {
		return nil, fmt.Errorf("engine: fault plan %s: %w", opts.Faults, err)
	}
	if opts.BlockSize == 0 {
		opts.BlockSize = cfg.blockSize
	}
	if opts.MetricsInterval <= 0 {
		opts.MetricsInterval = 5 * time.Second
	}

	// One kernel or windowed shards, decided here and nowhere else.
	nshards := min(opts.Shards, opts.Cluster.Nodes)
	if nshards > 1 && opts.Cluster.ControlLatency <= 0 {
		return nil, errors.New("engine: Shards > 1 needs a positive Cluster.ControlLatency (the shard lookahead bound)")
	}
	var (
		k       *sim.Kernel
		ss      *sim.ShardSet
		cl      *cluster.Cluster
		shardOf []int
	)
	if nshards > 1 && windowsEligible(&opts) {
		// Contiguous shard assignment: node i → shard i*n/nodes. Keeps
		// executor IDs within a shard consecutive, so per-shard iteration
		// order matches global ID order.
		ss = sim.NewShardSet(nshards, opts.Cluster.ControlLatency)
		shardOf = make([]int, opts.Cluster.Nodes)
		kernels := make([]*sim.Kernel, nshards)
		for i := range kernels {
			kernels[i] = ss.Shard(i)
		}
		for i := range shardOf {
			shardOf[i] = i * nshards / opts.Cluster.Nodes
		}
		// The driver lives on shard 0's kernel.
		k = ss.Shard(0)
		cl = cluster.NewSharded(kernels, func(i int) int { return shardOf[i] }, opts.Cluster)
		sp = new(runSpares)
	} else {
		if sp == nil {
			if sp, _ = idleSpares.Take(); sp == nil {
				sp = new(runSpares)
			}
		}
		k = sim.NewKernel()
		k.Reuse(sp.kernel)
		sp.kernel = sim.Storage{}
		cl = cluster.New(k, opts.Cluster)
	}
	e := &Engine{
		k:        k,
		ss:       ss,
		shardOf:  shardOf,
		opts:     opts,
		cfg:      cfg,
		cluster:  cl,
		shuffle:  newShuffleRegistry(sp, cl.Size()),
		toDriver: sim.NewMailbox[driverMsg](k),
		aud:      opts.Audit,
		recycle:  ss == nil,
		spares:   sp,
		bug:      enabledBug(),
	}
	e.toDriver.Reuse(sp.toDriver)
	sp.toDriver = sim.Buffers[driverMsg]{}
	e.sink = newTraceSink(opts.Trace)
	e.fs = dfs.New(e.cluster, opts.BlockSize)
	for _, in := range opts.Inputs {
		if _, err := e.fs.Create(in.Name, in.Size, opts.Replication); err != nil {
			return nil, fmt.Errorf("engine: create input: %w", err)
		}
	}
	e.em = newExecManager(e, e.cluster.Size())
	e.sched = newTaskScheduler(e)
	for i, node := range e.cluster.Nodes() {
		ex := newExecutor(e, i, node, opts.Policy)
		if i < len(sp.nodes) {
			ns := &sp.nodes[i]
			device.Reuse(&ns.devices, node.CPU, node.Disk, node.NIC)
			ex.inbox.Reuse(ns.inbox)
			ex.queue = ns.queue
			ns.inbox, ns.queue = sim.Buffers[execMsg]{}, sim.FIFO[launchMsg]{}
		}
		e.executors = append(e.executors, ex)
		ex.k.GoStepper(&ex.proc, fmt.Sprintf("executor-%d", i), ex)
	}
	// Executors and DFS datanodes are co-located 1:1, so a node's replicas
	// are unreachable exactly when its executor process is dead or the node
	// is inside a partition window, and replica rot follows the chaos
	// plan's corruption rolls.
	e.fs.SetFaultModel(dfs.FaultModel{
		Unreachable: func(node int) bool {
			return !e.executors[node].alive || e.partitionedNow(node)
		},
		Rotten: func(sum uint32, node int) bool {
			return e.opts.Faults.CorruptReplica(sum, node)
		},
	})
	// Each executor beats to the driver on the heartbeat interval; beats
	// from dead or partitioned executors are dropped at the source. The
	// beat is a periodic kernel event rescheduled in place — one queue
	// entry per executor for the whole run — rather than a process that
	// re-arms a fresh sleep timer per beat.
	// The ticker lives on the executor's own shard kernel, so the beat
	// reads executor state and the shard-local clock without crossing
	// shards; only the resulting message travels.
	for i, ex := range e.executors {
		var tick sim.Event
		tick = ex.k.Every(cfg.heartbeat, func() {
			if e.done.Load() {
				tick.Cancel()
				return
			}
			if !ex.alive || e.opts.Faults.Partitioned(i, ex.k.Now()) {
				return
			}
			e.sendDriver(ex.shard, driverMsg{kind: driverHeartbeat, exec: i, epoch: ex.epoch})
		})
	}
	if opts.Autoscale != nil {
		auto, err := newAutoCtl(e, *opts.Autoscale)
		if err != nil {
			return nil, err
		}
		e.auto = auto
	}
	// Decommissioned executors (autoscale capacity not yet activated) get no
	// detector: they are administratively down, not suspiciously silent.
	// Activation arms theirs through the normal join path.
	for i := range e.executors {
		if e.em.alive[i] {
			e.em.armDetector(i)
		}
	}
	if opts.Metrics != nil {
		// After the autoscaler exists (its gauges read it) and before any
		// event can fire, so the t=0 baseline sample sees assembled state.
		e.tel = newEngineTelemetry(e)
		e.tel.arm()
	}
	if e.aud != nil {
		// After autoscale assembly so t=0 aliveness (including capacity
		// not yet activated) is final, before any event can fire.
		active := make([]bool, len(e.executors))
		copy(active, e.em.alive)
		e.aud.BeginRun(active)
	}
	if !opts.Faults.Empty() {
		e.scheduleFaults(opts.Faults)
	}
	return e, nil
}

// partitionedNow reports whether exec's node is inside a chaos partition
// window at the current virtual time.
func (e *Engine) partitionedNow(exec int) bool {
	return e.opts.Faults.Partitioned(exec, e.k.Now())
}

// Submit registers spec to start at time zero. It must be called before
// Wait.
func (e *Engine) Submit(spec *job.JobSpec) (*JobHandle, error) {
	return e.SubmitAt(0, spec)
}

// SubmitAt registers spec to be admitted at the given virtual time,
// modelling a tenant arriving mid-run. It must be called before Wait. A
// stage whose task count the engine resolves from its input layout runs as a
// copy, so the count stays out of spec, which another engine may run over a
// different layout.
func (e *Engine) SubmitAt(at time.Duration, spec *job.JobSpec) (*JobHandle, error) {
	if e.started {
		return nil, errors.New("engine: Submit after Wait")
	}
	if at < 0 {
		return nil, errors.New("engine: negative submission time")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if e.ss != nil {
		if err := checkShardable(spec); err != nil {
			return nil, err
		}
	}
	own := *spec
	own.Stages = slices.Clone(spec.Stages)
	for i, st := range own.Stages {
		if st.NumTasks == 0 {
			st := *st
			own.Stages[i] = &st
		}
	}
	js := newJobState(len(e.jobs), &own, at)
	e.jobs = append(e.jobs, js)
	return &JobHandle{js: js}, nil
}

// Wait runs the simulation until every submitted job has finished or
// failed. It returns only engine-fatal errors (no executors left, broken
// trace sink); per-job outcomes are read from the handles.
func (e *Engine) Wait() error {
	if e.started {
		return errors.New("engine: Wait called twice")
	}
	e.started = true
	if len(e.jobs) == 0 {
		return errors.New("engine: no jobs submitted")
	}
	e.sizeJobTables()
	// Admit jobs in batches per distinct submission instant, in submission
	// order within a batch. Task assignment is deferred until the whole
	// batch is admitted: with per-job admission the first job's activation
	// would grab every free slot before the second job's task sets exist,
	// making same-instant admission FIFO regardless of the policy. One
	// assignAll after the batch lets Fair actually share the first wave.
	order := slices.Clone(e.jobs)
	slices.SortStableFunc(order, func(a, b *jobState) int { return cmp.Compare(a.rep.SubmittedAt, b.rep.SubmittedAt) })
	for len(order) > 0 {
		at := order[0].rep.SubmittedAt
		n := 1
		for n < len(order) && order[n].rep.SubmittedAt == at {
			n++
		}
		batch := order[:n]
		order = order[n:]
		e.k.At(at, func() {
			e.sched.deferAssign = true
			for _, js := range batch {
				e.startJob(js)
			}
			e.sched.deferAssign = false
			e.sched.assignAll()
		})
	}
	e.k.GoStepper(&e.driverProc, "driver", (*driver)(e))
	if e.opts.OnSetup != nil {
		e.opts.OnSetup(e)
	}
	if e.ss != nil {
		e.ss.RunWindows()
	} else {
		e.k.Budget(e.opts.MaxVirtualTime, e.opts.MaxEvents)
		e.k.Run()
	}
	err := e.closeRun()
	if e.recycle {
		e.giveBackSpares()
	}
	return err
}

// sizeJobTables makes the per-executor tables indexed by job ID, now that
// every job is submitted; the driver's counts are rows of one array.
func (e *Engine) sizeJobTables() {
	n := len(e.jobs)
	cells := make([]int, len(e.executors)*n)
	for i, ex := range e.executors {
		e.em.inflightJob[i], cells = cells[:n:n], cells[n:]
		ex.retired = make([][][]job.Decision, n)
	}
}

// closeRun settles a run whose simulation has drained and returns Wait's
// verdict.
func (e *Engine) closeRun() error {
	if e.auto != nil {
		// Close the node-seconds integral at the end of virtual time.
		e.auto.account()
	}
	if e.tel != nil {
		// Capture the end-of-run state; if the last sampler tick landed on
		// this instant the registry merges last-wins instead of duplicating.
		// Then freeze what the registry reads of this engine, whose state
		// the next engine may take over.
		e.tel.reg.Sample(e.k.Now())
		e.tel.reg.Freeze()
	}
	if e.fatal != nil {
		return e.fatal
	}
	if o := e.k.Overrun(); o != nil {
		return e.overrunError(o)
	}
	if e.completed < len(e.jobs) {
		return errors.New("engine: jobs did not complete")
	}
	if e.aud != nil {
		e.aud.EndRun()
	}
	return e.sink.flushErr()
}

// overrunError names the budget that ended the run and dumps the driver's
// state as it stood: the pending task sets, each executor's free slots (or
// that it is down, or blacklisted), the suspects, and the processes with a
// resume queued.
func (e *Engine) overrunError(o *sim.Overrun) error {
	var b strings.Builder
	if o.Events {
		fmt.Fprintf(&b, "MaxEvents %d ran out at %v", e.opts.MaxEvents, o.At)
	} else {
		fmt.Fprintf(&b, "MaxVirtualTime %v reached at %v after %d events", e.opts.MaxVirtualTime, o.At, o.Fired)
	}
	fmt.Fprintf(&b, "; %d of %d jobs done; pending task sets:", e.completed, len(e.jobs))
	for _, ts := range e.sched.sets {
		fmt.Fprintf(&b, " job %d stage %d (%d/%d done, %d queued", ts.key.job, ts.key.stage, ts.done, ts.total, ts.queue.live)
		if ts.recovery {
			b.WriteString(", recovery")
		}
		b.WriteString(")")
	}
	b.WriteString("; free slots:")
	for i := range e.executors {
		switch {
		case !e.em.alive[i]:
			b.WriteString(" down")
		case e.em.blacklisted[i]:
			fmt.Fprintf(&b, " %d/%d(blacklisted)", e.em.limits[i]-e.em.inflight[i], e.em.limits[i])
		default:
			fmt.Fprintf(&b, " %d/%d", e.em.limits[i]-e.em.inflight[i], e.em.limits[i])
		}
	}
	var suspects []string
	for i, s := range e.em.suspected {
		if s {
			suspects = append(suspects, strconv.Itoa(i))
		}
	}
	fmt.Fprintf(&b, "; suspects: [%s]; queued processes: [%s]", strings.Join(suspects, " "), strings.Join(o.Queued, ", "))
	return fmt.Errorf("%w: %s", ErrBudget, b.String())
}

// driver is the Engine as the driver process's sim.Stepper.
type driver Engine

// Step handles the messages that have arrived at the driver and waits for the
// next, until every job has finished or failed.
func (d *driver) Step() {
	e := (*Engine)(d)
	for e.completed < len(e.jobs) && e.fatal == nil {
		msg, ok := e.toDriver.TryRecv()
		if !ok {
			e.toDriver.StartRecv(&e.driverProc)
			return
		}
		switch msg.kind {
		case driverTaskDone:
			e.sched.handleTaskDone(&msg)
		case driverThreads:
			e.sched.handleThreads(&msg)
		case driverExecLost:
			e.sched.handleExecLost(&msg)
		case driverExecJoin:
			e.sched.handleExecJoin(&msg)
		case driverHeartbeat:
			e.sched.handleHeartbeat(&msg)
		}
	}
	// Housekeeping events (heartbeat tickers, interference streams) see
	// done on their next firing and wind down, draining the queues.
	e.done.Store(true)
}

// Run executes a single job on a fresh simulated cluster and returns its
// report — the one-job convenience wrapper over NewEngine/Submit/Wait.
func Run(opts Options, spec *job.JobSpec) (*JobReport, error) {
	e, err := NewEngine(opts)
	if err != nil {
		return nil, err
	}
	h, err := e.Submit(spec)
	if err != nil {
		return nil, err
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	return h.Report()
}

// Kernel returns the simulation kernel.
func (e *Engine) Kernel() *sim.Kernel { return e.k }

// FS returns the distributed file system.
func (e *Engine) FS() *dfs.FS { return e.fs }

// Executors returns the engine's executors, one per node.
func (e *Engine) Executors() []*Executor { return e.executors }

// InjectDiskInterference starts `streams` background readers hammering
// node's disk with chunk-sized reads from `from` until every job completes —
// a co-located tenant, in the paper's L4 terms. Call from Options.OnSetup.
func (e *Engine) InjectDiskInterference(node int, from time.Duration, streams int, chunk int64) {
	if chunk <= 0 {
		chunk = 32 << 20
	}
	for i := 0; i < streams; i++ {
		// The stream runs on the node's shard kernel — it hammers a
		// node-local device.
		r := &interferer{e: e, disk: e.cluster.Node(node).Disk, chunk: chunk, from: from}
		e.kernelOf(node).GoStepper(&r.proc, fmt.Sprintf("interference-%d-%d", node, i), r)
	}
}

// interferer is one background reader: a stackless process that waits out
// from, then keeps one chunk-sized read queued on disk until the run is done.
type interferer struct {
	proc  sim.Proc
	e     *Engine
	disk  *device.Disk
	chunk int64
	from  time.Duration
	begun bool
}

func (r *interferer) Step() {
	if !r.begun {
		r.begun = true
		r.proc.WakeAfter(r.from)
	} else if !r.e.done.Load() {
		r.disk.StartRead(&r.proc, r.chunk)
	}
}
