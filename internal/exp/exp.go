// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation, each returning a structured result that
// renders the same rows/series the paper reports, plus the Setup every run
// of the repo — paper artifact or scenario spec — builds its engine from.
package exp

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/conf"
	"sae/internal/core"
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
	// Config, if set, is the Spark-style configuration registry every run
	// reads its wired parameters from (see engine.Options.Config; nil runs
	// on the catalogue's defaults).
	Config *conf.Registry
	// Faults, if set, applies a deterministic chaos schedule to every run
	// (see package chaos and the faults experiment).
	Faults *chaos.Plan
	// Trace, if set, receives the engine event log of every run, each run's
	// log whole and in the order a loop over the runs would write them.
	Trace io.Writer
	// TraceFormat once chose between two event-log encodings.
	//
	// Deprecated: every trace is written in one format, with a header and
	// spans; nothing reads this field.
	TraceFormat int
	// Metrics, if set, attaches the telemetry registry to every run: the
	// series of the runs follow one another, as if one engine after another
	// had sampled it, and counters carry from run to run.
	Metrics *telemetry.Registry
	// MetricsInterval is the telemetry sampler period (0 selects 5s).
	MetricsInterval time.Duration
	// Audit, if set, attaches the invariant audit plane to every engine
	// the setup builds (see engine.Options.Audit).
	//
	// Trace, Metrics and Audit are sinks every run of the setup shares. Runs
	// going side by side (Each) write to sinks of their own, forked from
	// these and joined back in run order, so the shared sinks end as a loop
	// over the runs would leave them. An Audit that cannot fork
	// (engine.ForkableAudit) makes a fan-out one run wide, each run on these.
	Audit engine.Audit
	// MaxVirtualTime and MaxEvents bound every engine the setup builds (0 =
	// unbounded; see engine.Options).
	MaxVirtualTime time.Duration
	MaxEvents      uint64
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

// Options builds the engine options every run of the setup starts from: its
// cluster, observers, faults and conf registry (scheduler.mode, the inter-job
// scheduler, among its keys), and what the run varies — the sizing policy,
// the split size (0 keeps the registry's; a workload's yields only to an
// explicitly set files.maxPartitionBytes) and the inputs.
func (s Setup) Options(policy job.Policy, blockSize int64, inputs []engine.Input) engine.Options {
	opts := engine.Options{
		Cluster:         s.clusterConfig(),
		Config:          s.Config,
		Policy:          policy,
		Faults:          s.Faults,
		Inputs:          inputs,
		Trace:           s.Trace,
		Metrics:         s.Metrics,
		MetricsInterval: s.MetricsInterval,
		Audit:           s.Audit,
		MaxVirtualTime:  s.MaxVirtualTime,
		MaxEvents:       s.MaxEvents,
	}
	if s.Config == nil || !s.Config.IsSet("files.maxPartitionBytes") {
		opts.BlockSize = blockSize
	}
	return opts
}

// Run executes one workload under one policy and returns the engine report
// (RunEngine).
func (s Setup) Run(w *workloads.Spec, policy job.Policy, onSetup func(*engine.Engine)) (*engine.JobReport, error) {
	opts := s.Options(policy, w.BlockSize, w.Inputs)
	opts.OnSetup = onSetup
	var h *engine.JobHandle
	if _, err := RunEngine(opts, func(e *engine.Engine) (err error) {
		h, err = e.Submit(w.Job)
		return err
	}); err != nil {
		return nil, err
	}
	return h.Report()
}

// RunMulti executes several workloads concurrently on one engine under the
// registry's scheduler.mode and returns their reports in submission order.
// Inputs shared between workloads (same file name) are created once; the
// first workload's block size wins, as the engine has one DFS (RunEngine).
func (s Setup) RunMulti(ws []*workloads.Spec, policy job.Policy) ([]*engine.JobReport, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("exp: no workloads")
	}
	var inputs []engine.Input
	seen := map[string]bool{}
	for _, w := range ws {
		for _, in := range w.Inputs {
			if !seen[in.Name] {
				seen[in.Name] = true
				inputs = append(inputs, in)
			}
		}
	}
	handles := make([]*engine.JobHandle, len(ws))
	if _, err := RunEngine(s.Options(policy, ws[0].BlockSize, inputs), func(e *engine.Engine) (err error) {
		for i, w := range ws {
			if handles[i], err = e.Submit(w.Job); err != nil {
				return fmt.Errorf("exp: submit %s: %w", w.Name, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	reps := make([]*engine.JobReport, len(handles))
	for i, h := range handles {
		var err error
		if reps[i], err = h.Report(); err != nil {
			return nil, fmt.Errorf("exp: job %s: %w", ws[i].Name, err)
		}
	}
	return reps, nil
}

// ErrBadFlag marks a command-line flag value outside its range.
var ErrBadFlag = errors.New("bad flag value")

// ExitCode is the status sae-run, sae-exp and sae-hunt exit with on err: 2
// for an invocation that can never run — a flag value out of range (a chaos
// clause value among them, chaos.ErrOutOfRange), a conf value the catalogue
// refuses (conf.ErrBadValue), a cluster without nodes — else 1.
func ExitCode(err error) int {
	if errors.Is(err, ErrBadFlag) || errors.Is(err, engine.ErrNoNodes) || errors.Is(err, chaos.ErrOutOfRange) || errors.Is(err, conf.ErrBadValue) {
		return 2
	}
	return 1
}

// PolicyByName builds an executor sizing policy from its spec name:
// "default", "dynamic", or "static" / "static:N" (N I/O threads, default 8).
// It is the one policy-name table: scenario files resolve through it, and so
// does sae-run's -policy, which becomes a spec's policy field.
func PolicyByName(name string) (job.Policy, error) {
	switch name {
	case "default":
		return core.Default{}, nil
	case "dynamic":
		return core.DefaultDynamic(), nil
	case "static":
		return core.Static{IOThreads: 8}, nil
	}
	if count, ok := strings.CutPrefix(name, "static:"); ok {
		n, err := strconv.Atoi(count)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("exp: bad static thread count in policy %q (want static:N, N a positive integer)", name)
		}
		return core.Static{IOThreads: n}, nil
	}
	return nil, fmt.Errorf("exp: unknown policy %q (want default, static[:N] or dynamic)", name)
}

// Reduction returns the percentage runtime reduction of b relative to a.
func Reduction(a, b *engine.JobReport) float64 {
	if a.Runtime <= 0 {
		return 0
	}
	as, bs := a.Runtime.Seconds(), b.Runtime.Seconds()
	return 100 * (as - bs) / as
}
