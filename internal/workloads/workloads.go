// Package workloads models the HiBench applications of the paper's
// evaluation (Tables 2 and 3) as stage/task profiles for the engine: input
// sizes, per-stage CPU intensity, shuffle volumes and output sizes are
// calibrated so that I/O activity ratios (Table 2), per-stage CPU and iowait
// percentages (Fig. 1) and the thread-count sensitivity of the runtime
// (Figs. 2, 4, 8) reproduce the paper's shapes.
//
// Sizes scale with Config.Scale (1 = paper size) and with the cluster size
// relative to the paper's 4 nodes, which is exactly how the paper scales
// input for the 16-node experiment (Fig. 9).
package workloads

import (
	"fmt"
	"math"

	"sae/internal/device"
	"sae/internal/engine"
	"sae/internal/engine/job"
)

// Config scales a workload.
type Config struct {
	// Nodes is the cluster size the job will run on (paper: 4).
	Nodes int
	// Scale multiplies all data volumes (1 = paper size). Use small
	// values (e.g. 0.02) for fast tests.
	Scale float64
}

// Paper returns the paper's 4-node full-size configuration.
func Paper() Config { return Config{Nodes: 4, Scale: 1} }

// factor is the total data multiplier: Scale × Nodes/4.
func (c Config) factor() float64 {
	n := c.Nodes
	if n <= 0 {
		n = 4
	}
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	return s * float64(n) / 4
}

// bytes converts paper-scale GiB to scaled bytes, saturating at MaxInt64
// where the conversion would wrap.
func (c Config) bytes(gib float64) int64 {
	v := gib * c.factor() * float64(device.GiB)
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// shuffleTasks is the reduce-side parallelism: three waves over all cores,
// enough headroom for the dynamic hill-climb to complete its exploration.
func (c Config) shuffleTasks() int {
	n := c.Nodes
	if n <= 0 {
		n = 4
	}
	t := n * 32 * 3
	return t
}

// Spec bundles a workload's inputs and job for the engine.
type Spec struct {
	// Name is the HiBench application name.
	Name string
	// Class is the HiBench category ("micro", "sql", "websearch", "ml",
	// "graph").
	Class string
	// ProblemSize is the HiBench profile name from Table 3.
	ProblemSize string
	// InputBytes is the scaled input volume (Table 2's "Input Size").
	InputBytes int64
	// Inputs are the DFS files to pre-load.
	Inputs []engine.Input
	// BlockSize is the DFS block size the workload uses (0 = 128 MiB).
	// Splittable text/SQL inputs use smaller splits, as HiBench does.
	BlockSize int64
	// Job is the stage graph.
	Job *job.JobSpec
}

// builder accumulates stages with less repetition.
type builder struct {
	cfg       Config
	name      string
	blockSize int64
	inputs    []engine.Input
	stages    []*job.StageSpec
}

func newBuilder(cfg Config, name string) *builder {
	return &builder{cfg: cfg, name: name, blockSize: dfsBlock}
}

func (b *builder) input(file string, gib float64) {
	b.inputs = append(b.inputs, engine.Input{Name: file, Size: b.cfg.bytes(gib)})
}

// stageParams describes one stage in paper-scale units.
type stageParams struct {
	name string
	// read names a DFS input file for ingestion stages.
	read string
	// shuffleFrom lists upstream stage indices to fetch from.
	shuffleFrom []int
	// dependsOn lists control-dependency stage indices: stages the
	// scheduler must finish first even without a shuffle edge (e.g. a
	// broadcast of sampled partitioner boundaries).
	dependsOn []int
	// cpuSecPerMiB is single-core compute per MiB of task input.
	cpuSecPerMiB float64
	// cpuSecFixed is additional per-task compute independent of input.
	cpuSecFixed float64
	// memPressure is the concurrency CPU-inflation factor (see
	// job.StageSpec.MemPressure).
	memPressure float64
	// spillPressure is the concurrency spill-I/O factor (see
	// job.StageSpec.SpillPressure).
	spillPressure float64
	// shuffleGiB is the stage's total map-output volume (paper scale).
	shuffleGiB float64
	// outGiB writes output to file out (paper scale).
	outGiB float64
	out    string
	// sqlSink marks the output as written through a SQL sink, invisible
	// to the static solution's structural marking.
	sqlSink bool
	// tasks overrides the task count (0 = blocks for read stages,
	// shuffleTasks() otherwise).
	tasks int
}

func (b *builder) stage(p stageParams) {
	id := len(b.stages)
	s := &job.StageSpec{
		ID:                id,
		Name:              p.name,
		InputFile:         p.read,
		ShuffleFrom:       p.shuffleFrom,
		DependsOn:         p.dependsOn,
		ShuffleWriteBytes: b.cfg.bytes(p.shuffleGiB),
		OutputBytes:       b.cfg.bytes(p.outGiB),
		OutputFile:        p.out,
		SQLSink:           p.sqlSink,
		NumTasks:          p.tasks,
		MemPressure:       p.memPressure,
		SpillPressure:     p.spillPressure,
	}
	if s.InputFile == "" && s.NumTasks == 0 {
		s.NumTasks = b.cfg.shuffleTasks()
	}
	// Convert per-MiB compute into per-task seconds using the stage's
	// expected per-task input volume.
	var inputBytes int64
	if p.read != "" {
		for _, in := range b.inputs {
			if in.Name == p.read {
				inputBytes = in.Size
			}
		}
	}
	for _, from := range p.shuffleFrom {
		inputBytes += b.stages[from].ShuffleWriteBytes
	}
	tasks := s.NumTasks
	if tasks == 0 && p.read != "" {
		// Read stages default to one task per DFS block (at least one),
		// counted without inputBytes+blockSize-1, which can overflow.
		tasks = int(inputBytes / b.blockSize)
		if inputBytes%b.blockSize != 0 || tasks == 0 {
			tasks++
		}
	}
	perTaskMiB := float64(inputBytes) / float64(tasks) / float64(device.MiB)
	s.CPUSecondsPerTask = float64(p.cpuSecPerMiB*perTaskMiB) + p.cpuSecFixed
	b.stages = append(b.stages, s)
}

const dfsBlock = 128 * device.MiB

func (b *builder) build(class, problemSize string, inputGiB float64) *Spec {
	return &Spec{
		Name:        b.name,
		Class:       class,
		ProblemSize: problemSize,
		InputBytes:  b.cfg.bytes(inputGiB),
		Inputs:      b.inputs,
		BlockSize:   b.blockSize,
		Job:         &job.JobSpec{Name: b.name, Stages: b.stages},
	}
}

// Terasort is the 120 GiB (111.75 GiB effective) sort benchmark: three
// stages, all I/O-marked — sample/partition read, map read + shuffle spill,
// and reduce fetch + sorted output write. Per-stage CPU is tiny (Fig. 1:
// 6%, 15%, 9%), which is what makes it the paper's best case for thread
// tuning.
func Terasort(cfg Config) *Spec {
	b := newBuilder(cfg, "terasort")
	b.input("terasort/in", 111.75)
	b.stage(stageParams{
		name: "sample", read: "terasort/in",
		cpuSecPerMiB: 0.005, spillPressure: 0.12,
	})
	b.stage(stageParams{
		// The map tasks range-partition records with the boundaries the
		// sample stage broadcast, so they cannot start before it ends —
		// a control dependency with no shuffle edge.
		name: "map", read: "terasort/in", dependsOn: []int{0},
		cpuSecPerMiB: 0.050, spillPressure: 0.35,
		shuffleGiB: 48,
	})
	b.stage(stageParams{
		name: "reduce", shuffleFrom: []int{1},
		cpuSecPerMiB: 0.055, spillPressure: 0.25,
		out: "terasort/out", outGiB: 111.75,
	})
	return b.build("micro", "120 GiB", 111.75)
}

// PageRank is the HiBench "gigantic" web-graph ranking job: ingestion, four
// shuffle-only iteration stages (which the static solution cannot mark —
// limitation L2), and a final ranks write. Early iterations are CPU-heavy,
// later ones I/O-heavy (Fig. 1: 61, 54, 73, 15, 6, 3% CPU).
func PageRank(cfg Config) *Spec {
	b := newBuilder(cfg, "pagerank")
	b.blockSize = 32 * device.MiB
	b.input("pagerank/edges", 18.56)
	b.stage(stageParams{
		name: "ingest", read: "pagerank/edges",
		cpuSecPerMiB: 0.30, memPressure: 0.8, spillPressure: 1.6,
		shuffleGiB: 10,
	})
	b.stage(stageParams{
		name: "iter-1", shuffleFrom: []int{0},
		cpuSecPerMiB: 0.22, memPressure: 1.2, spillPressure: 3.2,
		shuffleGiB: 14,
	})
	b.stage(stageParams{
		name: "iter-2", shuffleFrom: []int{1},
		cpuSecPerMiB: 0.35, memPressure: 1.6, spillPressure: 3.6,
		shuffleGiB: 13,
	})
	b.stage(stageParams{
		name: "iter-3", shuffleFrom: []int{2},
		cpuSecPerMiB: 0.075, memPressure: 0.5, spillPressure: 1.6,
		shuffleGiB: 12,
	})
	b.stage(stageParams{
		name: "iter-4", shuffleFrom: []int{3},
		cpuSecPerMiB: 0.025, memPressure: 0.2, spillPressure: 1.0,
		shuffleGiB: 10,
	})
	b.stage(stageParams{
		name: "write-ranks", shuffleFrom: []int{4},
		cpuSecPerMiB: 0.012,
		out:          "pagerank/ranks", outGiB: 9,
	})
	return b.build("websearch", "gigantic", 18.56)
}

// Aggregation is the HiBench SQL GROUP BY over uservisits: a compute-heavy
// scan stage (46% CPU) whose disk utilization stays low at small thread
// counts — the reason the static solution cannot beat the default here
// (limitation L3) — followed by an aggregate+write stage.
func Aggregation(cfg Config) *Spec {
	b := newBuilder(cfg, "aggregation")
	b.blockSize = 16 * device.MiB
	b.input("sql/uservisits", 17.87)
	b.stage(stageParams{
		name: "scan-group", read: "sql/uservisits",
		cpuSecPerMiB: 0.34, spillPressure: 0.15,
		shuffleGiB: 5.5,
	})
	b.stage(stageParams{
		name: "aggregate", shuffleFrom: []int{0},
		cpuSecPerMiB: 0.26,
		out:          "sql/agg-out", sqlSink: true, outGiB: 3.6,
	})
	return b.build("sql", "bigdata", 17.87)
}

// Join is the HiBench SQL join of uservisits with rankings: two scan stages
// (the big one at 68% CPU) and a join+write stage. Its shuffle volumes are
// tiny relative to input (Table 2: +18%), so thread tuning buys little
// (Fig. 8d: −2.5%).
func Join(cfg Config) *Spec {
	b := newBuilder(cfg, "join")
	b.blockSize = 8 * device.MiB
	b.input("sql/uservisits", 16.9)
	b.input("sql/rankings", 0.97)
	b.stage(stageParams{
		name: "scan-uservisits", read: "sql/uservisits",
		cpuSecPerMiB: 0.62,
		shuffleGiB:   1.6,
	})
	b.stage(stageParams{
		// Spark's SQL planner serializes the two scans: the small
		// rankings side is scanned only after the big probe-side scan,
		// when the broadcast-threshold decision is settled. The edge
		// also keeps the calibrated Fig. 8d profile (each scan gets the
		// full cluster, as measured on real Spark).
		name: "scan-rankings", read: "sql/rankings", dependsOn: []int{0},
		cpuSecPerMiB: 0.45,
		shuffleGiB:   0.5,
		tasks:        0,
	})
	b.stage(stageParams{
		name: "join-write", shuffleFrom: []int{0, 1},
		cpuSecPerMiB: 0.35,
		out:          "sql/join-out", sqlSink: true, outGiB: 0.5,
	})
	return b.build("sql", "bigdata", 17.87)
}

// Scan is the HiBench SQL full-table scan, rewriting the table through a
// heavy intermediate spill (Table 2: 17.87 GiB in, 112.56 GiB of I/O).
func Scan(cfg Config) *Spec {
	b := newBuilder(cfg, "scan")
	b.input("sql/uservisits", 17.87)
	b.stage(stageParams{
		name: "scan", read: "sql/uservisits",
		cpuSecPerMiB: 0.06,
		shuffleGiB:   38,
	})
	b.stage(stageParams{
		name: "write", shuffleFrom: []int{0},
		cpuSecPerMiB: 0.02,
		out:          "sql/scan-out", sqlSink: true, outGiB: 18.7,
	})
	return b.build("sql", "bigdata", 17.87)
}

// Bayes is HiBench's naive-Bayes trainer: tokenize, aggregate term counts,
// write the model (Table 2: 3.5 GiB in, 9.8 GiB I/O).
func Bayes(cfg Config) *Spec {
	b := newBuilder(cfg, "bayes")
	b.blockSize = 32 * device.MiB
	b.input("bayes/docs", 3.5)
	b.stage(stageParams{
		name: "tokenize", read: "bayes/docs",
		cpuSecPerMiB: 0.55,
		shuffleGiB:   1.5,
	})
	b.stage(stageParams{
		name: "count", shuffleFrom: []int{0},
		cpuSecPerMiB: 0.40,
		shuffleGiB:   1.3,
	})
	b.stage(stageParams{
		name: "model", shuffleFrom: []int{1},
		cpuSecPerMiB: 0.15,
		out:          "bayes/model", outGiB: 0.7,
	})
	return b.build("ml", "bigdata", 3.5)
}

// LDA is HiBench's topic-model trainer: small input, several Gibbs-style
// iterations with shuffle volumes close to the corpus size (Table 2: +508%).
func LDA(cfg Config) *Spec {
	b := newBuilder(cfg, "lda")
	b.blockSize = 32 * device.MiB
	b.input("lda/corpus", 0.63)
	b.stage(stageParams{
		name: "ingest", read: "lda/corpus",
		cpuSecPerMiB: 1.1,
		shuffleGiB:   0.5,
	})
	b.stage(stageParams{
		name: "iter-1", shuffleFrom: []int{0},
		cpuSecPerMiB: 1.3,
		shuffleGiB:   0.45,
	})
	b.stage(stageParams{
		name: "iter-2", shuffleFrom: []int{1},
		cpuSecPerMiB: 1.3,
		shuffleGiB:   0.4,
	})
	b.stage(stageParams{
		name: "topics", shuffleFrom: []int{2},
		cpuSecPerMiB: 0.5,
		out:          "lda/topics", outGiB: 0.5,
	})
	return b.build("ml", "small", 0.63)
}

// NWeight is HiBench's graph n-hop weight propagation: a tiny edge list
// explodes into shuffle traffic 36× the input (Table 2: +3553%).
func NWeight(cfg Config) *Spec {
	b := newBuilder(cfg, "nweight")
	b.blockSize = 32 * device.MiB
	b.input("nweight/edges", 0.28)
	b.stage(stageParams{
		name: "load", read: "nweight/edges",
		cpuSecPerMiB: 0.9,
		shuffleGiB:   1.6,
	})
	b.stage(stageParams{
		name: "hop-2", shuffleFrom: []int{0},
		cpuSecPerMiB: 0.7,
		shuffleGiB:   2.2,
	})
	b.stage(stageParams{
		name: "hop-3", shuffleFrom: []int{1},
		cpuSecPerMiB: 0.7,
		shuffleGiB:   1.1,
	})
	b.stage(stageParams{
		name: "weights", shuffleFrom: []int{2},
		cpuSecPerMiB: 0.3,
		out:          "nweight/out", outGiB: 0.15,
	})
	return b.build("graph", "large", 0.28)
}

// SVM is HiBench's support-vector-machine trainer: a huge ingestion (the
// cached training set) plus compute-dominated iterations with modest
// gradients shuffles (Table 2: 107.29 GiB in, +90%).
func SVM(cfg Config) *Spec {
	b := newBuilder(cfg, "svm")
	b.blockSize = 32 * device.MiB
	b.input("svm/train", 107.29)
	b.stage(stageParams{
		name: "ingest-cache", read: "svm/train",
		cpuSecPerMiB: 0.25,
		shuffleGiB:   45,
	})
	b.stage(stageParams{
		name: "train", shuffleFrom: []int{0},
		cpuSecPerMiB: 0.30,
		out:          "svm/model", outGiB: 6.6,
	})
	return b.build("ml", "huge", 107.29)
}

// All returns the nine Table 2 applications at the given configuration.
func All(cfg Config) []*Spec {
	return []*Spec{
		Aggregation(cfg),
		Bayes(cfg),
		Join(cfg),
		LDA(cfg),
		NWeight(cfg),
		PageRank(cfg),
		Scan(cfg),
		Terasort(cfg),
		SVM(cfg),
	}
}

// ByName returns the named workload, or an error listing valid names.
func ByName(name string, cfg Config) (*Spec, error) {
	ctors := map[string]func(Config) *Spec{
		"terasort":    Terasort,
		"pagerank":    PageRank,
		"aggregation": Aggregation,
		"join":        Join,
		"scan":        Scan,
		"bayes":       Bayes,
		"lda":         LDA,
		"nweight":     NWeight,
		"svm":         SVM,
	}
	ctor, ok := ctors[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return ctor(cfg), nil
}

// GiB converts bytes to GiB for display.
func GiB(b int64) float64 { return float64(float64(b) / float64(device.GiB)) }
