package engine

import (
	"fmt"
	"strings"
	"time"

	"sae/internal/engine/job"
)

// ExecutorStageStats aggregates one executor's activity within one stage.
type ExecutorStageStats struct {
	Executor   int
	Node       int
	Tasks      int
	LocalTasks int
	// BlockedIO is the summed ε of the executor's tasks in this stage.
	BlockedIO time.Duration
	// Bytes is the summed bytes moved (µ numerator).
	Bytes int64
	// InitialThreads and FinalThreads bracket the pool size over the
	// stage; for the dynamic policy Final is the hill-climb's choice.
	InitialThreads int
	FinalThreads   int
}

// Throughput returns the executor's average stage throughput in bytes/s.
func (s ExecutorStageStats) Throughput(stage StageReport) float64 {
	d := stage.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(s.Bytes) / d
}

// StageReport summarizes one executed stage.
type StageReport struct {
	ID       int
	Name     string
	IOMarked bool
	Start    time.Duration
	End      time.Duration
	Execs    []ExecutorStageStats

	// Cluster-averaged percentages over the stage window (Fig. 1/5).
	CPUPercent      float64
	IowaitPercent   float64
	DiskUtilPercent float64

	// Byte deltas over the stage window across all nodes.
	DiskReadBytes  int64
	DiskWriteBytes int64
	NetBytes       int64

	// ThreadsTotal is the sum of final per-executor thread counts, and
	// MaxThreadsTotal the sum of core counts — the paper's "14/128"
	// stage annotations in Fig. 8.
	ThreadsTotal    int
	MaxThreadsTotal int

	// Retries counts failed task attempts that were rescheduled.
	Retries int
	// Speculative counts backup copies launched for stragglers.
	Speculative int

	// TaskP50/TaskP95/TaskMax summarize winning-task durations.
	TaskP50 time.Duration
	TaskP95 time.Duration
	TaskMax time.Duration

	// Fault-recovery activity during the stage window.
	LostExecutors     int
	ResubmittedStages int
	// Requeued counts task attempts put back in the queue by executor
	// loss or stale fetch plans (distinct from Retries, which are the
	// task's own failures).
	Requeued int
	// RecoveredBytes is shuffle output re-registered by lineage recovery.
	RecoveredBytes int64
}

// Duration returns the stage's wall time.
func (sr StageReport) Duration() time.Duration { return sr.End - sr.Start }

// Bytes returns the stage's summed bytes moved across executors.
func (sr StageReport) Bytes() int64 {
	var total int64
	for _, e := range sr.Execs {
		total += e.Bytes
	}
	return total
}

// ThreadsLabel renders the paper's "used/total" stage annotation.
func (sr StageReport) ThreadsLabel() string {
	return fmt.Sprintf("%d/%d", sr.ThreadsTotal, sr.MaxThreadsTotal)
}

// JobReport summarizes one job run.
type JobReport struct {
	// ID is the job's submission index on its engine.
	ID int
	// Job is the job's name; Policy the executor sizing policy; Sched the
	// inter-job scheduling policy (FIFO/FAIR) the run used.
	Job    string
	Policy string
	Sched  string
	// Tenant is the submitting tenant class ("" for single-tenant runs);
	// Priority its inter-job priority.
	Tenant   string
	Priority int
	// SubmittedAt is the job's admission instant; Runtime its sojourn time
	// (submission to completion), the per-tenant SLO latency. QueueDelay is
	// how long the job waited for its first task launch — the open-loop
	// queueing delay an overloaded cluster accumulates.
	SubmittedAt time.Duration
	QueueDelay  time.Duration
	Runtime     time.Duration
	// Stages is indexed by stage ID. Under concurrent stages the
	// utilization percentages describe the whole cluster during each
	// stage's window, not that stage's own traffic.
	Stages []StageReport

	// DiskReadBytes/DiskWriteBytes/NetBytes are the job's whole-run
	// device totals (Table 2's "I/O activity"), attributed from
	// task-level metrics — concurrent jobs on one cluster never count
	// each other's traffic.
	DiskReadBytes  int64
	DiskWriteBytes int64
	NetBytes       int64

	// Fault-recovery totals for the run.
	LostExecutors     int
	ResubmittedStages int
	RecoveredBytes    int64

	// Gray-failure totals: Suspected counts heartbeat suspicions raised
	// while the job ran, Fenced counts false-positive incarnations ordered
	// to re-join under a fresh epoch, FetchRetries the bounded shuffle
	// fetch retries, and ChecksumFailovers the DFS reads that fell over to
	// another replica after a checksum mismatch.
	Suspected         int
	Fenced            int
	FetchRetries      int
	ChecksumFailovers int

	// Decisions holds each executor's controller decision log.
	Decisions [][]job.Decision
	// ThreadLogs holds each executor's pool-size change history (Fig. 6).
	ThreadLogs [][]ThreadChange
}

// TotalIOBytes returns all disk traffic of the run.
func (jr *JobReport) TotalIOBytes() int64 { return jr.DiskReadBytes + jr.DiskWriteBytes }

// FinalThreads returns, per stage, each executor's final thread count.
func (jr *JobReport) FinalThreads() [][]int {
	out := make([][]int, len(jr.Stages))
	for i, st := range jr.Stages {
		for _, e := range st.Execs {
			out[i] = append(out[i], e.FinalThreads)
		}
	}
	return out
}

// String renders a compact human-readable summary.
func (jr *JobReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]: runtime %.1fs, %d stages, %.2f GiB disk I/O\n",
		jr.Job, jr.Policy, jr.Runtime.Seconds(), len(jr.Stages),
		float64(jr.TotalIOBytes())/(1<<30))
	if jr.Tenant != "" {
		fmt.Fprintf(&b, "  tenant %s: submitted %.1fs, queue delay %.1fs\n",
			jr.Tenant, jr.SubmittedAt.Seconds(), jr.QueueDelay.Seconds())
	}
	for _, st := range jr.Stages {
		fmt.Fprintf(&b, "  stage %d %-12s %8.1fs  threads %-8s cpu %5.1f%% iowait %5.1f%% disk %5.1f%%\n",
			st.ID, st.Name, st.Duration().Seconds(), st.ThreadsLabel(),
			st.CPUPercent, st.IowaitPercent, st.DiskUtilPercent)
	}
	if jr.LostExecutors > 0 || jr.ResubmittedStages > 0 || jr.RecoveredBytes > 0 {
		fmt.Fprintf(&b, "  faults: %d executor(s) lost, %d stage(s) resubmitted, %.2f GiB recovered\n",
			jr.LostExecutors, jr.ResubmittedStages, float64(jr.RecoveredBytes)/(1<<30))
	}
	if jr.Suspected > 0 || jr.Fenced > 0 || jr.FetchRetries > 0 || jr.ChecksumFailovers > 0 {
		fmt.Fprintf(&b, "  gray: %d suspicion(s), %d fenced, %d fetch retries, %d checksum failover(s)\n",
			jr.Suspected, jr.Fenced, jr.FetchRetries, jr.ChecksumFailovers)
	}
	return b.String()
}
