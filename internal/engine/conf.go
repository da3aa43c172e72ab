package engine

import (
	"fmt"
	"time"

	"sae/internal/conf"
)

// minBlockSize is the smallest files.maxPartitionBytes ApplyConfig accepts:
// HDFS's default dfs.namenode.fs-limits.min-block-size.
const minBlockSize = 1 << 20

// ApplyConfig's bounds on the wired durations and counts, each far outside
// what any committed spec or test uses. Every executor beats once per
// heartbeat interval, so a nanosecond one never lets the clock reach the
// job's end, and a few hundred hours of lossBeats overflow a time.Duration.
// A failing fetch backs off retryWait << try, virtual time the heartbeats
// fill event by event: 10 retries of 30s already wait 8.5 hours. A task's
// launch CPU is capped at a minute.
const (
	minHeartbeat      = 100 * time.Millisecond
	maxHeartbeat      = time.Hour
	maxFetchRetries   = 10
	maxFetchRetryWait = 30 * time.Second
	maxTaskOverheadMs = 60000
)

// ApplyConfig folds the wired parameters of a configuration registry into
// the engine options, mirroring how the paper's drop-in executor honours
// the stock Spark configuration surface (Table 1). Only parameters marked
// Wired in the catalogue have an effect; everything else is accepted for
// compatibility. A value Options would read as "use the default" is either
// mapped to what it means or refused as a conf.ErrBadValue naming the key.
func ApplyConfig(opts *Options, reg *conf.Registry) error {
	cores, err := reg.GetInt("executor.cores")
	if err != nil {
		return err
	}
	if cores < 1 {
		return fmt.Errorf("%w: executor.cores = %d, want at least 1", conf.ErrBadValue, cores)
	}
	// Virtual cores are SMT pairs over physical cores, as on the paper's
	// nodes (32 virtual / 16 physical).
	opts.Cluster.CPU.VirtualCores = cores
	opts.Cluster.CPU.PhysicalCores = max(1, cores/2)
	if opts.BlockSize, err = reg.GetBytes("files.maxPartitionBytes"); err != nil {
		return err
	}
	if opts.BlockSize < minBlockSize {
		// A negative size panics the file system and a tiny one splits the
		// input into more blocks than memory holds.
		return fmt.Errorf("engine: files.maxPartitionBytes must be at least 1 MiB, got %d", opts.BlockSize)
	}
	overhead, err := reg.GetInt("executor.taskOverheadMillis")
	if err != nil {
		return err
	}
	if overhead > maxTaskOverheadMs {
		return fmt.Errorf("engine: executor.taskOverheadMillis must be at most %d, got %d", maxTaskOverheadMs, overhead)
	}
	opts.TaskOverheadCPUSeconds = float64(overhead) / 1000
	if overhead <= 0 {
		opts.TaskOverheadCPUSeconds = -1 // Options reads 0 as the 20 ms default
	}
	if opts.TaskMaxFailures, err = reg.GetInt("task.maxFailures"); err != nil {
		return err
	}
	if opts.TaskMaxFailures < 1 {
		return fmt.Errorf("%w: task.maxFailures = %d, want at least 1", conf.ErrBadValue, opts.TaskMaxFailures)
	}
	if opts.Speculation, err = reg.GetBool("speculation"); err != nil {
		return err
	}
	if opts.SpeculationQuantile, err = reg.GetFloat("speculation.quantile"); err != nil {
		return err
	}
	if q := opts.SpeculationQuantile; q <= 0 || q > 1 {
		return fmt.Errorf("%w: speculation.quantile = %v, want one in (0, 1]", conf.ErrBadValue, q)
	}
	if opts.SpeculationMultiplier, err = reg.GetFloat("speculation.multiplier"); err != nil {
		return err
	}
	if opts.SpeculationMultiplier <= 1 {
		return fmt.Errorf("engine: speculation.multiplier must exceed 1, got %v", opts.SpeculationMultiplier)
	}
	mode, err := reg.Get("scheduler.mode")
	if err != nil {
		return err
	}
	switch mode {
	case "FIFO":
		opts.JobPolicy = FIFO{}
	case "FAIR":
		opts.JobPolicy = Fair{}
	default:
		return fmt.Errorf("engine: scheduler.mode must be FIFO or FAIR, got %q", mode)
	}
	streak, err := reg.GetInt("blacklist.stage.maxFailedTasksPerExecutor")
	if err != nil {
		return err
	}
	if streak <= 0 {
		opts.BlacklistAfter = -1 // disabled
	} else {
		opts.BlacklistAfter = streak
	}
	if opts.HeartbeatInterval, err = reg.GetDuration("executor.heartbeatInterval"); err != nil {
		return err
	}
	if hb := opts.HeartbeatInterval; hb < minHeartbeat || hb > maxHeartbeat {
		return fmt.Errorf("engine: executor.heartbeatInterval must be %v to %v, got %v", minHeartbeat, maxHeartbeat, hb)
	}
	retries, err := reg.GetInt("shuffle.io.maxRetries")
	if err != nil {
		return err
	}
	switch {
	case retries > maxFetchRetries:
		return fmt.Errorf("engine: shuffle.io.maxRetries must be at most %d, got %d", maxFetchRetries, retries)
	case retries <= 0:
		opts.FetchMaxRetries = -1 // disabled
	default:
		opts.FetchMaxRetries = retries
	}
	if opts.FetchRetryWait, err = reg.GetDuration("shuffle.io.retryWait"); err != nil {
		return err
	}
	if w := opts.FetchRetryWait; w <= 0 || w > maxFetchRetryWait {
		// The engine would read a non-positive wait as unset: 5s.
		return fmt.Errorf("engine: shuffle.io.retryWait must be positive and at most %v, got %v", maxFetchRetryWait, w)
	}
	return nil
}
