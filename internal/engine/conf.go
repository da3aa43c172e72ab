package engine

import (
	"fmt"
	"time"

	"sae/internal/conf"
)

// minBlockSize is the smallest files.maxPartitionBytes ApplyConfig accepts:
// HDFS's default dfs.namenode.fs-limits.min-block-size.
const minBlockSize = 1 << 20

// minHeartbeat is the shortest executor.heartbeatInterval ApplyConfig
// accepts, ten times below the shortest any spec or test uses: every
// executor beats once per interval, so a nanosecond one never lets the
// clock reach the job's end.
const minHeartbeat = 100 * time.Millisecond

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
	if opts.HeartbeatInterval < minHeartbeat {
		return fmt.Errorf("engine: executor.heartbeatInterval must be at least %v, got %v", minHeartbeat, opts.HeartbeatInterval)
	}
	retries, err := reg.GetInt("shuffle.io.maxRetries")
	if err != nil {
		return err
	}
	if retries <= 0 {
		opts.FetchMaxRetries = -1 // disabled
	} else {
		opts.FetchMaxRetries = retries
	}
	if opts.FetchRetryWait, err = reg.GetDuration("shuffle.io.retryWait"); err != nil {
		return err
	}
	if opts.FetchRetryWait <= 0 {
		// The engine would read it as unset: 5s.
		return fmt.Errorf("engine: shuffle.io.retryWait must be positive, got %v", opts.FetchRetryWait)
	}
	return nil
}
