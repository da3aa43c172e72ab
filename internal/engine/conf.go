package engine

import (
	"fmt"
	"time"

	"sae/internal/conf"
)

// minBlockSize is the smallest files.maxPartitionBytes a run accepts: HDFS's
// default dfs.namenode.fs-limits.min-block-size.
const minBlockSize = 1 << 20

// The bounds on the wired durations and counts, each far outside what any
// committed spec or test uses. Every executor beats once per heartbeat
// interval, so a nanosecond one never lets the clock reach the job's end, and
// a few hundred hours of lossBeats overflow a time.Duration. A failing fetch
// backs off retryWait << try, virtual time the heartbeats fill event by
// event: 10 retries of 30s already wait 8.5 hours. A task's launch CPU is
// capped at a minute.
const (
	minHeartbeat      = 100 * time.Millisecond
	maxHeartbeat      = time.Hour
	maxFetchRetries   = 10
	maxFetchRetryWait = 30 * time.Second
	maxTaskOverheadMs = 60000
)

// config is what a run reads of the wired parameters of a configuration
// registry, mirroring how the paper's drop-in executor honours the stock
// Spark configuration surface (Table 1). Each value is held at its meaning:
// a zero count or overhead means none.
type config struct {
	cores          int           // executor.cores
	blockSize      int64         // files.maxPartitionBytes
	taskOverhead   float64       // executor.taskOverheadMillis, in CPU seconds
	maxFailures    int           // task.maxFailures
	speculation    bool          // speculation
	specQuantile   float64       // speculation.quantile
	specMultiplier float64       // speculation.multiplier
	fair           bool          // scheduler.mode is FAIR, not FIFO
	blacklistAfter int           // blacklist.stage.maxFailedTasksPerExecutor
	heartbeat      time.Duration // executor.heartbeatInterval
	fetchRetries   int           // shuffle.io.maxRetries
	fetchRetryWait time.Duration // shuffle.io.retryWait
}

// catalogueConfig is the catalogue's defaults, read once per process: what a
// run without Options.Config reads.
var catalogueConfig = func() config {
	c, err := readConfig(conf.New())
	if err != nil {
		panic(err)
	}
	return c
}()

// CheckConfig reports the first wired parameter of reg a run would refuse,
// as a conf.ErrBadValue or an error naming the key. Only parameters marked
// Wired in the catalogue have an effect; everything else is accepted for
// compatibility.
func CheckConfig(reg *conf.Registry) error {
	_, err := readConfig(reg)
	return err
}

// readConfig is what a run reads of reg, or CheckConfig's error.
func readConfig(reg *conf.Registry) (c config, err error) {
	if c.cores, err = reg.GetInt("executor.cores"); err != nil {
		return c, err
	}
	if c.cores < 1 {
		return c, fmt.Errorf("%w: executor.cores = %d, want at least 1", conf.ErrBadValue, c.cores)
	}
	if c.blockSize, err = reg.GetBytes("files.maxPartitionBytes"); err != nil {
		return c, err
	}
	if c.blockSize < minBlockSize {
		// A negative size panics the file system and a tiny one splits the
		// input into more blocks than memory holds.
		return c, fmt.Errorf("engine: files.maxPartitionBytes must be at least 1 MiB, got %d", c.blockSize)
	}
	overhead, err := reg.GetInt("executor.taskOverheadMillis")
	if err != nil {
		return c, err
	}
	if overhead > maxTaskOverheadMs {
		return c, fmt.Errorf("engine: executor.taskOverheadMillis must be at most %d, got %d", maxTaskOverheadMs, overhead)
	}
	c.taskOverhead = float64(max(overhead, 0)) / 1000
	if c.maxFailures, err = reg.GetInt("task.maxFailures"); err != nil {
		return c, err
	}
	if c.maxFailures < 1 {
		return c, fmt.Errorf("%w: task.maxFailures = %d, want at least 1", conf.ErrBadValue, c.maxFailures)
	}
	if c.speculation, err = reg.GetBool("speculation"); err != nil {
		return c, err
	}
	if c.specQuantile, err = reg.GetFloat("speculation.quantile"); err != nil {
		return c, err
	}
	if q := c.specQuantile; q <= 0 || q > 1 {
		return c, fmt.Errorf("%w: speculation.quantile = %v, want one in (0, 1]", conf.ErrBadValue, q)
	}
	if c.specMultiplier, err = reg.GetFloat("speculation.multiplier"); err != nil {
		return c, err
	}
	if c.specMultiplier <= 1 {
		return c, fmt.Errorf("engine: speculation.multiplier must exceed 1, got %v", c.specMultiplier)
	}
	mode, err := reg.Get("scheduler.mode")
	if err != nil {
		return c, err
	}
	if mode != "FIFO" && mode != "FAIR" {
		return c, fmt.Errorf("engine: scheduler.mode must be FIFO or FAIR, got %q", mode)
	}
	c.fair = mode == "FAIR"
	if c.blacklistAfter, err = reg.GetInt("blacklist.stage.maxFailedTasksPerExecutor"); err != nil {
		return c, err
	}
	c.blacklistAfter = max(c.blacklistAfter, 0)
	if c.heartbeat, err = reg.GetDuration("executor.heartbeatInterval"); err != nil {
		return c, err
	}
	if hb := c.heartbeat; hb < minHeartbeat || hb > maxHeartbeat {
		return c, fmt.Errorf("engine: executor.heartbeatInterval must be %v to %v, got %v", minHeartbeat, maxHeartbeat, hb)
	}
	if c.fetchRetries, err = reg.GetInt("shuffle.io.maxRetries"); err != nil {
		return c, err
	}
	if c.fetchRetries > maxFetchRetries {
		return c, fmt.Errorf("engine: shuffle.io.maxRetries must be at most %d, got %d", maxFetchRetries, c.fetchRetries)
	}
	c.fetchRetries = max(c.fetchRetries, 0)
	if c.fetchRetryWait, err = reg.GetDuration("shuffle.io.retryWait"); err != nil {
		return c, err
	}
	if w := c.fetchRetryWait; w <= 0 || w > maxFetchRetryWait {
		return c, fmt.Errorf("engine: shuffle.io.retryWait must be positive and at most %v, got %v", maxFetchRetryWait, w)
	}
	return c, nil
}
