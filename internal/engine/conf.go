package engine

import (
	"time"

	"sae/internal/conf"
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
var catalogueConfig = readConfig(conf.New())

// readConfig is what a run reads of reg. conf.Registry.Set refuses every
// value of a wired key a run cannot take, so each read succeeds.
func readConfig(reg *conf.Registry) config {
	return config{
		cores:          must(reg.GetInt("executor.cores")),
		blockSize:      must(reg.GetBytes("files.maxPartitionBytes")),
		taskOverhead:   float64(max(must(reg.GetInt("executor.taskOverheadMillis")), 0)) / 1000,
		maxFailures:    must(reg.GetInt("task.maxFailures")),
		speculation:    must(reg.GetBool("speculation")),
		specQuantile:   must(reg.GetFloat("speculation.quantile")),
		specMultiplier: must(reg.GetFloat("speculation.multiplier")),
		fair:           must(reg.Get("scheduler.mode")) == "FAIR",
		blacklistAfter: max(must(reg.GetInt("blacklist.stage.maxFailedTasksPerExecutor")), 0),
		heartbeat:      must(reg.GetDuration("executor.heartbeatInterval")),
		fetchRetries:   max(must(reg.GetInt("shuffle.io.maxRetries")), 0),
		fetchRetryWait: must(reg.GetDuration("shuffle.io.retryWait")),
	}
}

// must is v, or a panic on err: a wired value the catalogue accepted that a
// run cannot read is a defect of its catalogue entry.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
