// Package metrics defines the measurement vocabulary of the paper's MAPE-K
// monitor: per-interval epoll-wait time (ε), I/O throughput (µ) and the
// paper's congestion index ζ = ε/µ, computed only by Interval.Congestion (the
// analyzer in package core compares duration / tasks / µ), plus the one
// percentile rule every report uses. Sampled time series belong to telemetry.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Interval aggregates the monitor's measurements over one tuning interval
// (in the paper: the completion of j tasks while the pool size is j).
type Interval struct {
	// Start and End bound the interval in virtual time.
	Start, End time.Duration
	// BlockedIO is ε: total time tasks spent blocked waiting for I/O
	// completions (the strace epoll-wait analogue).
	BlockedIO time.Duration
	// Bytes is the total data moved by tasks (disk and shuffle, read and
	// write), the numerator of µ.
	Bytes int64
	// Tasks is the number of task completions attributed to the interval.
	Tasks int
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// Throughput returns µ in bytes/second. Zero-length intervals yield 0.
func (iv Interval) Throughput() float64 {
	d := iv.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(iv.Bytes) / d
}

// Congestion returns ζ = ε/µ, the paper's I/O congestion index (eq. 1).
// Intervals that moved no data have no meaningful congestion; they report 0
// so that CPU-bound stages read as uncongested.
func (iv Interval) Congestion() float64 {
	mu := iv.Throughput()
	if mu <= 0 {
		return 0
	}
	return iv.BlockedIO.Seconds() / mu
}

// Merge combines two measurement windows.
func (iv Interval) Merge(other Interval) Interval {
	out := iv
	if other.Start < out.Start || out.Tasks == 0 {
		out.Start = other.Start
	}
	if other.End > out.End {
		out.End = other.End
	}
	out.BlockedIO += other.BlockedIO
	out.Bytes += other.Bytes
	out.Tasks += other.Tasks
	return out
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%v,%v] ε=%v µ=%.1fMB/s ζ=%.4g (%d tasks)",
		iv.Start, iv.End, iv.BlockedIO, iv.Throughput()/1e6, iv.Congestion(), iv.Tasks)
}

// Quantiles returns nearest-rank quantiles of vals: for each p in ps the
// smallest element v such that at least ⌈p·n⌉ values are ≤ v (p clamped to
// (0, 1]; p = 0.5 is the lower median, p = 1 the maximum). vals is not
// modified. An empty input yields zeros — callers render "no data" rather
// than a fabricated percentile. This is the single percentile helper every
// report uses (per-tenant job latency, queueing delay), so all reported
// percentiles share one set of semantics.
func Quantiles(vals []time.Duration, ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(vals) == 0 {
		return out
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	for i, p := range ps {
		rank := int(math.Ceil(min(p, 1) * float64(len(sorted))))
		out[i] = sorted[max(rank, 1)-1]
	}
	return out
}
