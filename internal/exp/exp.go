// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation, each returning a structured result that
// renders the same rows/series the paper reports.
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/conf"
	"sae/internal/device"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/telemetry"
	"sae/internal/workloads"
)

// Setup fixes the simulated environment for an experiment.
type Setup struct {
	// Nodes is the cluster size (paper: 4, Fig. 9 also 16, Fig. 3: 44).
	Nodes int
	// Scale multiplies data volumes (1 = paper size).
	Scale float64
	// Disk selects the storage device (HDD by default, SSD for §6.3).
	Disk device.DiskSpec
	// Seed drives per-node variability.
	Seed int64
	// Config, if set, applies a Spark-style configuration registry to
	// every run (wired parameters only; see engine.ApplyConfig).
	Config *conf.Registry
	// Faults, if set, applies a deterministic chaos schedule to every run
	// (see package chaos and the faults experiment).
	Faults *chaos.Plan
	// Trace, if set, receives the engine event log of every run.
	Trace io.Writer
	// TraceFormat selects the event-log encoding (see
	// engine.Options.TraceFormat; 2 adds the versioned header and spans).
	TraceFormat int
	// Metrics, if set, attaches the telemetry registry to every run. A
	// registry accumulates one run's series, so sweeps that build many
	// engines from one Setup should leave it nil and single-run callers
	// (sae-run, tests) set it; a non-nil registry forces sequential
	// experiment execution, like Trace.
	Metrics *telemetry.Registry
	// MetricsInterval is the telemetry sampler period (0 selects 5s).
	MetricsInterval time.Duration
	// Audit, if set, attaches the invariant audit plane to every engine
	// the setup builds (see engine.Options.Audit). An auditor accumulates
	// sequential per-run state, so like Trace and Metrics it forces
	// sequential experiment execution.
	Audit engine.Audit
}

// Default returns the paper's 4-node HDD environment.
func Default() Setup {
	return Setup{Nodes: 4, Scale: 1, Disk: device.HDD7200(), Seed: 1}
}

// WithScale returns a copy with the given data scale (for fast tests).
func (s Setup) WithScale(scale float64) Setup {
	s.Scale = scale
	return s
}

// WithSSD returns a copy using the SSD device model.
func (s Setup) WithSSD() Setup {
	s.Disk = device.SSDSata()
	return s
}

// WithNodes returns a copy with the given cluster size.
func (s Setup) WithNodes(n int) Setup {
	s.Nodes = n
	return s
}

// WithFaults returns a copy applying the given chaos schedule to every run.
func (s Setup) WithFaults(plan *chaos.Plan) Setup {
	s.Faults = plan
	return s
}

func (s Setup) workloadConfig() workloads.Config {
	return workloads.Config{Nodes: s.Nodes, Scale: s.Scale}
}

func (s Setup) clusterConfig() cluster.Config {
	cfg := cluster.DAS5(s.Nodes)
	cfg.Disk = s.Disk
	cfg.Variability = device.DefaultVariability(s.Seed)
	return cfg
}

// engineOptions starts the options of every engine the setup builds: its
// cluster and its observers. Callers add what varies per run (policy, inputs,
// faults, autoscaling).
func (s Setup) engineOptions() engine.Options {
	return engine.Options{
		Cluster:         s.clusterConfig(),
		Trace:           s.Trace,
		TraceFormat:     s.TraceFormat,
		Metrics:         s.Metrics,
		MetricsInterval: s.MetricsInterval,
		Audit:           s.Audit,
	}
}

// Run executes one workload under one policy and returns the engine report.
func (s Setup) Run(w *workloads.Spec, policy job.Policy, onSetup func(*engine.Engine)) (*engine.JobReport, error) {
	opts := s.engineOptions()
	opts.BlockSize = w.BlockSize
	opts.Policy = policy
	opts.Faults = s.Faults
	opts.Inputs = w.Inputs
	opts.OnSetup = onSetup
	if s.Config != nil {
		if err := engine.ApplyConfig(&opts, s.Config); err != nil {
			return nil, err
		}
		// The workload's split size wins unless the operator set one.
		if w.BlockSize != 0 && !s.Config.IsSet("files.maxPartitionBytes") {
			opts.BlockSize = w.BlockSize
		}
	}
	return engine.Run(opts, w.Job)
}

// StageStat is one stage row of a run summary.
type StageStat struct {
	Stage         int
	Name          string
	Seconds       float64
	CPUPct        float64
	IowaitPct     float64
	DiskUtilPct   float64
	ThreadsLabel  string
	ThreadsTotal  int
	BlockedIOSec  float64
	Bytes         int64
	DiskReadGiB   float64
	DiskWriteGiB  float64
	ExecThreads   []int
	ExecBlockedIO []time.Duration
	ExecBytes     []int64
}

// RunStat summarizes one run for rendering.
type RunStat struct {
	Policy  string
	Seconds float64
	Stages  []StageStat
}

func summarize(rep *engine.JobReport) RunStat {
	rs := RunStat{Policy: rep.Policy, Seconds: rep.Runtime.Seconds()}
	for _, st := range rep.Stages {
		ss := StageStat{
			Stage:        st.ID,
			Name:         st.Name,
			Seconds:      st.Duration().Seconds(),
			CPUPct:       st.CPUPercent,
			IowaitPct:    st.IowaitPercent,
			DiskUtilPct:  st.DiskUtilPercent,
			ThreadsLabel: st.ThreadsLabel(),
			ThreadsTotal: st.ThreadsTotal,
			BlockedIOSec: st.BlockedIO().Seconds(),
			Bytes:        st.Bytes(),
			DiskReadGiB:  workloads.GiB(st.DiskReadBytes),
			DiskWriteGiB: workloads.GiB(st.DiskWriteBytes),
		}
		for _, e := range st.Execs {
			ss.ExecThreads = append(ss.ExecThreads, e.FinalThreads)
			ss.ExecBlockedIO = append(ss.ExecBlockedIO, e.BlockedIO)
			ss.ExecBytes = append(ss.ExecBytes, e.Bytes)
		}
		rs.Stages = append(rs.Stages, ss)
	}
	return rs
}

// Reduction returns the percentage runtime reduction of b relative to a.
func Reduction(a, b RunStat) float64 {
	if a.Seconds <= 0 {
		return 0
	}
	return 100 * (a.Seconds - b.Seconds) / a.Seconds
}

func (rs RunStat) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8.1fs\n", rs.Policy, rs.Seconds)
	for _, st := range rs.Stages {
		fmt.Fprintf(&b, "    stage %d %-14s %8.1fs  %-8s cpu %5.1f%%  iowait %5.1f%%  disk %5.1f%%\n",
			st.Stage, st.Name, st.Seconds, st.ThreadsLabel, st.CPUPct, st.IowaitPct, st.DiskUtilPct)
	}
	return b.String()
}
