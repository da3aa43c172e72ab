// Package sae (self-adaptive executors) is a from-scratch reproduction of
// "Self-adaptive Executors for Big Data Processing" (Omranian Khorasani,
// Rellermeyer, Epema — Middleware 2019) as a Go library.
//
// The package bundles:
//
//   - a deterministic discrete-event cluster simulator with calibrated
//     HDD/SSD, SMT-CPU and network models;
//   - a Spark-like dataflow engine (stages, shuffle, locality-aware driver,
//     per-node executors with resizable worker pools);
//   - the paper's executor sizing policies: the stock default, the §4
//     static solution, the per-stage BestFit composition, and the §5
//     MAPE-K self-adaptive (dynamic) executor;
//   - the nine HiBench-style workload models of the evaluation;
//   - a typed RDD layer executing real data through the same engine;
//   - an experiment harness regenerating every table and figure.
//
// Quick start:
//
//	report, err := sae.Run(sae.DAS5(), sae.Terasort(sae.PaperScale()), sae.Adaptive())
//
// or build a real dataflow program:
//
//	ctx, _ := sae.NewContext(sae.ContextOptions{Policy: sae.Adaptive()})
//	lines := sae.TextFile(ctx, "in", data, 64)
//	counts := sae.ReduceByKey(sae.MapData(words, toPair), add, 32)
//	out, report, err := sae.Collect(counts)
package sae

import (
	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/exp"
	"sae/internal/workloads"
)

// Re-exported core types.
type (
	// Policy sizes executor thread pools per stage.
	Policy = job.Policy
	// JobReport summarizes one job run.
	JobReport = engine.JobReport
	// StageReport summarizes one stage of a run.
	StageReport = engine.StageReport
	// Workload bundles a job and its inputs.
	Workload = workloads.Spec
	// WorkloadConfig scales a workload.
	WorkloadConfig = workloads.Config
	// Setup fixes the simulated environment for runs and experiments.
	Setup = exp.Setup
	// ClusterConfig describes the simulated hardware.
	ClusterConfig = cluster.Config
	// DiskSpec is a storage device profile.
	DiskSpec = device.DiskSpec
	// FaultPlan is a deterministic chaos schedule (executor crashes,
	// transient task and fetch faults) applied to a run via
	// Setup.WithFaults or ContextOptions.Faults.
	FaultPlan = chaos.Plan
)

// Default returns stock Spark behaviour: one worker thread per virtual
// core, fixed for the whole application.
func Default() Policy { return core.Default{} }

// Static returns the paper's §4 solution: ioThreads worker threads for
// structurally I/O-marked stages, the default elsewhere.
func Static(ioThreads int) Policy { return core.Static{IOThreads: ioThreads} }

// BestFit pins an explicit thread count per stage ID (the paper's
// hypothetical per-stage optimum composition).
func BestFit(threads map[int]int) Policy { return core.BestFit{Threads: threads} }

// Adaptive returns the paper's §5 self-adaptive executor policy: a MAPE-K
// loop per executor that hill-climbs the pool size on the congestion index
// ζ = ε/µ.
func Adaptive() Policy { return core.DefaultDynamic() }

// AdaptiveWith returns the dynamic policy with an explicit hill-climb
// starting point cmin.
func AdaptiveWith(cmin int) Policy { return core.Dynamic(cmin, 0) }

// DAS5 returns the paper's evaluation environment: 4 nodes × 32 virtual
// cores with 7'200 rpm HDDs.
func DAS5() Setup { return exp.Default() }

// HDD and SSD return the calibrated storage device profiles of §6.
func HDD() DiskSpec { return device.HDD7200() }

// SSD returns the SATA SSD profile of §6.3.
func SSD() DiskSpec { return device.SSDSata() }

// PaperScale returns the paper's full data sizes on 4 nodes.
func PaperScale() WorkloadConfig { return workloads.Paper() }

// ScaledDown returns a workload configuration shrunk by factor (e.g. 0.05
// for fast experimentation).
func ScaledDown(scale float64) WorkloadConfig {
	return workloads.Config{Nodes: 4, Scale: scale}
}

// Workload constructors (the nine applications of Tables 2/3).
var (
	Terasort    = workloads.Terasort
	PageRank    = workloads.PageRank
	Aggregation = workloads.Aggregation
	Join        = workloads.Join
	Scan        = workloads.Scan
	Bayes       = workloads.Bayes
	LDA         = workloads.LDA
	NWeight     = workloads.NWeight
	SVM         = workloads.SVM
)

// WorkloadByName returns a workload constructor result by HiBench name.
func WorkloadByName(name string, cfg WorkloadConfig) (*Workload, error) {
	return workloads.ByName(name, cfg)
}

// AllWorkloads returns the nine Table 2 applications.
func AllWorkloads(cfg WorkloadConfig) []*Workload { return workloads.All(cfg) }

// Run executes one workload under one policy in the given environment.
func Run(s Setup, w *Workload, p Policy) (*JobReport, error) {
	return s.Run(w, p, nil)
}

// RunMulti executes several workloads concurrently on one engine, returning
// one report per workload in submission order. The inter-job scheduler is
// s.Config's scheduler.mode: FIFO (the default) runs jobs in submission
// order, FAIR splits executor slots evenly between the jobs running.
func RunMulti(s Setup, ws []*Workload, p Policy) ([]*JobReport, error) {
	return s.RunMulti(ws, p)
}

// ParseFaults parses a chaos schedule spec, e.g. "crash@90s",
// "crash2@2m+30s,flaky:0.02,seed:7", "mayhem@10m" or "quiet". Gray-failure
// clauses degrade instead of kill: "slow:1@60sx4" throttles a node's
// devices 4x, "partition:2@90s+45s" drops an executor's heartbeats and
// shuffle fetches while its tasks keep running, and "corrupt:0.02" rots
// that fraction of DFS replicas (reads fail the checksum and fail over).
// The grammar is documented once, on chaos.Schedule; ParseFaults is its
// absolute-time entry point (hash seed 1 unless the spec has seed:N).
func ParseFaults(spec string) (*FaultPlan, error) { return chaos.Parse(spec) }

// NodeSpeedFactor returns the deterministic disk speed factor the
// variability model assigns to node i under the given seed (1 = nominal;
// stragglers fall well below — Fig. 3).
func NodeSpeedFactor(seed int64, i int) float64 {
	return device.DefaultVariability(seed).Factor(i)
}
