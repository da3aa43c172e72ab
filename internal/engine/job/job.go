// Package job defines the engine's logical job model — stages, task work and
// the sizing-policy contract between executors and the adaptive core. A job
// is a linear-or-DAG sequence of stages; each stage fans out into tasks that
// read input (DFS splits or upstream shuffle output), compute, and write
// (shuffle or DFS output). A task's work is a sequence of operations (Op) on
// the simulated devices: the *analytic* sequence derived from the stage's byte
// and CPU budgets (AnalyticOps, used for paper-scale experiments), or one the
// RDD layer generates while it runs the stage's real Go computation (Ops).
package job

import (
	"errors"
	"fmt"
	"time"

	"sae/internal/metrics"
)

// StageSpec describes one stage of a job.
type StageSpec struct {
	// ID is the stage's index within the job. Edges (ShuffleFrom and
	// DependsOn) may only point backwards; stages whose dependencies are
	// all satisfied become runnable, and independent stages run
	// concurrently.
	ID int
	// Name labels the stage in reports (e.g. "ingest", "shuffle-1").
	Name string
	// NumTasks is the stage's task count. If zero and InputFile is set,
	// the engine uses one task per DFS block.
	NumTasks int

	// InputFile names a DFS file the stage reads, split across tasks.
	InputFile string
	// ShuffleFrom lists earlier stage IDs whose shuffle output this
	// stage fetches (all partitions destined for each reduce task).
	ShuffleFrom []int
	// DependsOn lists earlier stage IDs this stage must wait for even
	// though it fetches no shuffle data from them — a control dependency,
	// like Terasort's map stage needing the sample stage's partitioner
	// boundaries. Together with ShuffleFrom it defines the stage DAG:
	// stages with no path between them may run concurrently.
	DependsOn []int

	// CPUSecondsPerTask is the single-core compute demand of each task,
	// interleaved with its I/O.
	CPUSecondsPerTask float64
	// MemPressure inflates per-task CPU demand with executor
	// concurrency: a task computing while n pool threads are running
	// costs ×(1 + MemPressure·(n−1)/(vcores−1)). It models the
	// super-linear JVM costs of wide executors — GC pressure, memory
	// bandwidth contention, cache thrash — that make memory-hungry
	// stages (e.g. PageRank iterations over a cached graph) genuinely
	// cheaper per task at smaller pool sizes.
	MemPressure float64
	// SpillPressure adds concurrency-dependent spill I/O: with n pool
	// threads running, each processed chunk spills an extra
	// SpillPressure·((n−1)/(vcores−1))² of its volume to local disk and
	// merges it back. It models Spark's buffer spilling when per-task
	// memory shrinks with pool width — §3's observation that
	// transformations spill "to reduce memory pressure" is a large part
	// of Table 2's I/O amplification. The quadratic shape reflects
	// multi-pass spilling: half the buffer budget doubles the number of
	// spill files AND the merge fan-in.
	SpillPressure float64

	// ShuffleWriteBytes is the stage's total map-output volume, spilled
	// to local disk and registered for downstream fetch.
	ShuffleWriteBytes int64
	// OutputFile, if set, receives OutputBytes of DFS output.
	OutputFile  string
	OutputBytes int64
	// SQLSink marks output written through a SQL-style sink (e.g. an
	// INSERT) rather than an explicit save action; such stages write to
	// the DFS but carry no structural I/O marker the static solution
	// could see (limitation L2, observed on the paper's SQL workloads).
	SQLSink bool

	// Work, if non-nil, returns the operation generator of one task (RDD
	// layer), called once per attempt; otherwise the task performs
	// AnalyticOps, the analytic cost model above.
	Work func(task int) Ops
}

// IOMarked reports whether the static solution considers this stage
// I/O-intensive: it explicitly reads from or writes to the DFS (the paper's
// textFile/saveAsTextFile marking). Shuffle-only stages are NOT marked —
// that is exactly limitation L2 of the static approach.
func (s *StageSpec) IOMarked() bool {
	return s.InputFile != "" || (s.OutputFile != "" && !s.SQLSink)
}

// Meta returns the stage's policy-visible metadata.
func (s *StageSpec) Meta() StageMeta {
	return StageMeta{ID: s.ID, Name: s.Name, NumTasks: s.NumTasks, IOMarked: s.IOMarked()}
}

// JobSpec is an ordered set of stages.
type JobSpec struct {
	Name   string
	Stages []*StageSpec
	// Tenant labels the submitting tenant class for per-class SLO
	// reporting ("" for single-tenant runs).
	Tenant string
	// Priority is the tenant class's priority (higher is more urgent), a
	// label carried onto the report: no inter-job scheduler reads it.
	Priority int
}

// Validate checks structural invariants: contiguous IDs, positive task
// counts (or DFS-derived), and shuffle edges that point backwards only.
func (j *JobSpec) Validate() error {
	if len(j.Stages) == 0 {
		return errors.New("job: no stages")
	}
	for i, s := range j.Stages {
		if s.ID != i {
			return fmt.Errorf("job %s: stage %d has ID %d, want contiguous IDs", j.Name, i, s.ID)
		}
		if s.NumTasks <= 0 && s.InputFile == "" {
			return fmt.Errorf("job %s: stage %d has no tasks and no input file", j.Name, i)
		}
		if s.NumTasks < 0 {
			return fmt.Errorf("job %s: stage %d has negative task count", j.Name, i)
		}
		for _, from := range s.ShuffleFrom {
			if from < 0 || from >= i {
				return fmt.Errorf("job %s: stage %d shuffles from invalid stage %d", j.Name, i, from)
			}
			if j.Stages[from].ShuffleWriteBytes <= 0 && j.Stages[from].Work == nil {
				return fmt.Errorf("job %s: stage %d shuffles from stage %d which writes no shuffle data", j.Name, i, from)
			}
		}
		for _, dep := range s.DependsOn {
			if dep < 0 || dep >= i {
				return fmt.Errorf("job %s: stage %d depends on invalid stage %d", j.Name, i, dep)
			}
		}
		if s.CPUSecondsPerTask < 0 || s.ShuffleWriteBytes < 0 || s.OutputBytes < 0 {
			return fmt.Errorf("job %s: stage %d has negative demands", j.Name, i)
		}
		if s.OutputBytes > 0 && s.OutputFile == "" {
			return fmt.Errorf("job %s: stage %d writes output bytes without an output file", j.Name, i)
		}
	}
	return nil
}

// TaskContext is the executor-provided view of a running task that its
// operation generator plans from.
type TaskContext interface {
	// Node returns the ID of the node the task runs on.
	Node() int
	// Executor returns the ID of the owning executor.
	Executor() int
	// Stage returns the stage being executed.
	Stage() *StageSpec
	// Index returns the task index within the stage.
	Index() int
	// InputBytes returns the total input volume assigned to this task
	// (DFS split size plus pending shuffle fetch).
	InputBytes() int64
	// Concurrency returns the number of tasks currently running on the
	// owning executor (including this one).
	Concurrency() int
	// VirtualCores returns the node's virtual core count (cmax).
	VirtualCores() int
}

// Ops generates one task's operations. The executor calls Next, performs the
// operation it returns on the owning node's simulated devices — the task waits
// in virtual time, ε and µ are accounted — and calls Next again with the
// result, until OpDone. Whatever real computation the task does happens
// inside Next, between two operations.
type Ops interface {
	// Next returns the task's next operation. got is the result of the one
	// Next returned before: the bytes an OpReadInput actually read, 0 for
	// the other kinds and on the first call.
	Next(tc TaskContext, got int64) Op
}

// ChunkBytes is the granularity at which the analytic cost model interleaves
// I/O and compute — roughly a Spark task's buffer/spill unit.
const ChunkBytes = 32 << 20

// OpKind names one kind of device work a task waits for.
type OpKind uint8

// The operations, in the order the analytic cost loop issues them within a
// chunk.
const (
	// OpDone ends the task.
	OpDone OpKind = iota
	// OpReadInput consumes up to Bytes of the task's remaining input — its
	// DFS split, then its shuffle fetch plan. Its result is the bytes
	// actually read; 0 means the input is exhausted.
	OpReadInput
	// OpCompute burns Seconds of single-core CPU time.
	OpCompute
	// OpSpill writes Bytes of temporary data to the local disk and merges
	// them back (write + read), modelling buffer spills.
	OpSpill
	// OpWriteShuffle spills Bytes of map output to the local disk.
	OpWriteShuffle
	// OpWriteOutput writes Bytes to the stage's DFS output file.
	OpWriteOutput
)

// Op is one operation with its argument: Seconds for OpCompute, Bytes for the
// others. Err, on an OpDone, fails the attempt with that error.
type Op struct {
	Kind    OpKind
	Bytes   int64
	Seconds float64
	Err     error
}

// AnalyticOps is the analytic cost loop, a task planned from its stage's cost
// parameters: per chunk, read a share of the input, compute, spill what the
// executor's concurrency at that moment forces out of memory, and write the
// chunk's shares of shuffle and DFS output. This reproduces the alternating
// CPU↔I/O pattern that makes thread-count tuning matter: too few threads leave
// the disk idle during compute phases, too many thrash it. The zero value is
// ready for Begin.
type AnalyticOps struct {
	in, shuffleOut, fileOut int64
	chunks, chunk           int
	cpuPer                  float64
	// next is the operation Next returns next; got is what the chunk's
	// OpReadInput read, which sizes its spill.
	next OpKind
	got  int64
}

// Begin plans the task tc describes.
func (a *AnalyticOps) Begin(tc TaskContext) {
	s := tc.Stage()
	in := tc.InputBytes()
	shuffleOut := perTask(s.ShuffleWriteBytes, s.NumTasks, tc.Index())
	fileOut := perTask(s.OutputBytes, s.NumTasks, tc.Index())
	chunks := max(1, int((max(in, shuffleOut+fileOut)+ChunkBytes-1)/ChunkBytes))
	*a = AnalyticOps{
		in: in, shuffleOut: shuffleOut, fileOut: fileOut, chunks: chunks,
		cpuPer: s.CPUSecondsPerTask / float64(chunks), next: OpReadInput,
	}
}

// Next returns the task's next operation, OpDone after the last. got is the
// result of the operation Next returned before (0 on the first call). The
// spill is sized here, from the concurrency tc reports once the chunk's
// compute has finished — not before.
func (a *AnalyticOps) Next(tc TaskContext, got int64) Op {
	if a.chunk == a.chunks {
		return Op{}
	}
	i, kind := a.chunk, a.next
	a.next++
	switch kind {
	case OpReadInput:
		return Op{Kind: kind, Bytes: chunkShare(a.in, a.chunks, i)}
	case OpCompute:
		a.got = got
		return Op{Kind: kind, Seconds: a.cpuPer}
	case OpSpill:
		s := tc.Stage()
		if s.SpillPressure > 0 && tc.VirtualCores() > 1 {
			x := float64(tc.Concurrency()-1) / float64(tc.VirtualCores()-1)
			return Op{Kind: kind, Bytes: int64(float64(a.got+chunkShare(a.shuffleOut, a.chunks, i)) * s.SpillPressure * x * x)}
		}
		return a.Next(tc, 0)
	case OpWriteShuffle:
		return Op{Kind: kind, Bytes: chunkShare(a.shuffleOut, a.chunks, i)}
	default:
		a.chunk, a.next = i+1, OpReadInput
		return Op{Kind: OpWriteOutput, Bytes: chunkShare(a.fileOut, a.chunks, i)}
	}
}

// perTask divides a stage-total volume evenly across tasks, giving earlier
// tasks the remainder so totals are exact.
func perTask(total int64, numTasks, idx int) int64 {
	if numTasks <= 0 {
		return 0
	}
	base := total / int64(numTasks)
	if int64(idx) < total%int64(numTasks) {
		base++
	}
	return base
}

// chunkShare divides a task-total volume across chunks exactly.
func chunkShare(total int64, chunks, idx int) int64 {
	base := total / int64(chunks)
	if int64(idx) < total%int64(chunks) {
		base++
	}
	return base
}

// StageMeta is the policy-visible description of a stage.
type StageMeta struct {
	ID       int
	Name     string
	NumTasks int
	// IOMarked is the static solution's structural I/O signal.
	IOMarked bool
}

// TaskMetrics reports one completed task to the sizing policy and driver.
type TaskMetrics struct {
	Stage, Index int
	Start, End   time.Duration
	// BlockedIO is the task's ε contribution: virtual time spent waiting
	// on disk or network completions.
	BlockedIO time.Duration
	// BytesMoved is the task's µ contribution: all bytes it read or
	// wrote on any device.
	BytesMoved int64
	// DiskReadBytes/DiskWriteBytes/NetBytes break the task's device
	// traffic down per medium for per-job I/O attribution. Unlike
	// BytesMoved they include spill amplification (spills occupy the
	// disk even though they are not goodput), so per-job totals match
	// what the devices actually served.
	DiskReadBytes  int64
	DiskWriteBytes int64
	NetBytes       int64
	// DiskBusyFrac is the node disk's busy fraction over the task's
	// lifetime (the iostat %util analogue, used by the utilization-
	// driven ablation controller).
	DiskBusyFrac float64
	// Local reports whether all DFS reads were node-local.
	Local bool
	// FetchRetries counts shuffle-fetch attempts that backed off and
	// retried (transient fetch faults or network partitions).
	FetchRetries int
	// ChecksumFailovers counts DFS block reads that failed verification
	// on one replica and fell back to another.
	ChecksumFailovers int
}

// Duration returns the task's wall time.
func (tm TaskMetrics) Duration() time.Duration { return tm.End - tm.Start }

// ExecutorInfo describes an executor to a sizing policy.
type ExecutorInfo struct {
	ID int
	// Node is the node the executor runs on.
	Node int
	// MaxThreads is cmax: the number of virtual cores.
	MaxThreads int
}

// Decision records one thread-count choice for analysis and reporting: the
// pool size the loop applied, the interval it planned from and the planner's
// verdict, kept as data; Reason renders it on read.
type Decision struct {
	At       time.Duration
	Stage    int
	Threads  int
	Interval metrics.Interval
	Verdict  Verdict
}

// Verdict is one planning step's reading of a closed interval: what it did
// and the two signals it compared.
type Verdict struct {
	// Prev and Signal are the previous interval's signal and the closed
	// one's: ζ, or disk utilization when Util is set.
	Prev, Signal float64
	// From is the pool size the interval ran at (AIMD's reason names it).
	From   int32
	Action Action
	// Util marks a utilization signal; Cmin a descending climb, whose
	// search bound is cmin instead of cmax.
	Util, Cmin bool
}

// Action is what a planning step did.
type Action uint8

// The actions. The zero Action is no planning step at all.
const (
	// ActFirst: the stage's first interval closed; step to the next rung.
	ActFirst Action = iota + 1
	// ActImproved: the signal improved on the previous interval's; step on.
	ActImproved
	// ActRollback: the signal worsened; step back one rung and freeze.
	ActRollback
	// ActStay: the signal worsened; freeze without rolling back.
	ActStay
	// ActStartedAtBound: the first interval ran at the search bound; freeze.
	ActStartedAtBound
	// ActReachedBound: the bound was reached while improving; freeze.
	ActReachedBound
	// ActAIMD: AIMD's additive increase or multiplicative decrease.
	ActAIMD
	// ActReprobe: a frozen climb re-opened from its starting size.
	ActReprobe
)

// Reason renders the decision's verdict as one line of text, e.g.
// "ζ improved 1.056e-08 → 4.224e-09".
func (d Decision) Reason() string {
	v := d.Verdict
	sym, what, bound := "ζ", "congestion", "cmax"
	if v.Util {
		sym, what = "util", "utilization"
	}
	if v.Cmin {
		bound = "cmin"
	}
	switch v.Action {
	case ActFirst:
		return fmt.Sprintf("first interval, %s=%.4g", sym, v.Signal)
	case ActImproved:
		return fmt.Sprintf("%s improved %.4g → %.4g", sym, v.Prev, v.Signal)
	case ActRollback:
		return fmt.Sprintf("%s worsened %.4g → %.4g; rollback and freeze", sym, v.Prev, v.Signal)
	case ActStay:
		return fmt.Sprintf("%s worsened %.4g → %.4g; freeze without rollback", sym, v.Prev, v.Signal)
	case ActStartedAtBound:
		return "started at " + bound
	case ActReachedBound:
		return "reached " + bound + " with improving " + what
	case ActAIMD:
		return fmt.Sprintf("AIMD %d→%d (ζ=%.4g)", v.From, d.Threads, v.Signal)
	case ActReprobe:
		return "re-probe: restarting hill climb"
	}
	return ""
}

// Controller sizes one executor's thread pool. Methods are invoked from
// simulation context in deterministic order.
type Controller interface {
	// StageStart resets per-stage state and returns the initial thread
	// count for the stage.
	StageStart(meta StageMeta) int
	// TaskDone feeds one completed task's measurements to the
	// controller; it returns the (possibly new) thread count and whether
	// it changed.
	TaskDone(tm TaskMetrics) (threads int, changed bool)
	// Decisions returns the decision log.
	Decisions() []Decision
}

// Policy creates per-executor controllers. Implementations live in
// internal/core (the paper's contribution).
type Policy interface {
	// Name identifies the policy in reports ("default", "static",
	// "static-bestfit", "dynamic").
	Name() string
	// NewController returns a controller for one executor.
	NewController(exec ExecutorInfo) Controller
	// InitialThreads mirrors the controller's StageStart value so the
	// driver can size its slot table before the executor reacts; it must
	// be consistent with the controller.
	InitialThreads(exec ExecutorInfo, meta StageMeta) int
}
