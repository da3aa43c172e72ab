package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"sae"
	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/hunt"
	"sae/internal/invariant"
	"sae/internal/scenario"
	"sae/internal/telemetry"
)

// specFS holds frozen copies of the five scenarios/*.yaml goldens, so a
// later edit under scenarios/ cannot change the load this benchmark applies.
//
//go:embed specs/*.yaml
var specFS embed.FS

// sizes scales the workloads. full is the benchmark; short exists for the
// package's own tests and for smoke runs, and its numbers are not comparable
// with anything.
type sizes struct {
	scale     float64 // data scale of paper_sweep and goldens_observed
	wideNodes int     // cluster size of wide_cluster (24 blocks per node)
	huntScale float64 // scale hunt_smoke overrides every spec's with
	huntNodes []int   // cluster sizes of the variants each golden contributes to hunt_smoke
	ladderOps float64 // multiplier on the ladder's operation counts
}

var (
	fullSize  = sizes{scale: 1, wideNodes: 256, huntScale: 0.02, huntNodes: []int{4, 6, 8, 4}, ladderOps: 1}
	shortSize = sizes{scale: 0.02, wideNodes: 16, huntScale: 0.02, huntNodes: []int{6}, ladderOps: 0.02}
)

// unitResult is the outcome of one unit of a pass.
type unitResult struct {
	id string
	// out is the unit's simulated result; at the default seed its
	// fingerprint must equal the one frozen in expected.json.
	out string
	// aux covers output that must repeat from pass to pass but is not
	// frozen: trace and telemetry export sizes and checksums.
	aux string
	err error
}

// workload is one closed-loop benchmark workload: prepare generates the
// inputs from the seed and returns the function that runs one pass, the
// workload's fixed unit list run once, one unit after the other.
type workload struct {
	name string
	why  string
	// warm passes run before timing starts; at least minTimed timed passes
	// are taken however short -seconds is.
	warm, minTimed int
	prepare        func(seed int64, sz sizes) (*prepared, error)
}

// prepared is a workload with its inputs generated.
type prepared struct {
	// pass runs the unit list once; tr is nil with tracing off.
	pass func(tr *tracer) []unitResult
	// extras, if set, takes the workload's additional traced-run
	// measurements (see traceCtx).
	extras func(x *traceCtx) error
}

var workloads = []workload{
	{
		name: "paper_sweep",
		why: "W=1 T>=3. The 16 paper artifacts at full scale, observers off: 4-44-node short runs where sim dispatch, " +
			"psres and the scheduler dominate; DFS replica choice and observers cost nothing.",
		warm: 1, minTimed: 3, prepare: preparePaperSweep,
	},
	{
		name: "goldens_observed",
		why: "W=1 T>=3. The 5 frozen scenario specs under audit, trace v2 and telemetry with exports: the observer " +
			"planes work here, not in paper_sweep; only gated use of chaos, arrivals, autoscale, FIFO/FAIR.",
		warm: 1, minTimed: 3, prepare: prepareGoldens,
	},
	{
		name: "wide_cluster",
		why: "W=4 T>=20. A 256-node faulted scan at replication 0 and 3: cluster assembly, DFS placement and replica " +
			"choice, the 256-executor driver scan and GC dominate; r3 keeps an all-replica fast path honest.",
		warm: 4, minTimed: 20, prepare: prepareWide,
	},
	{
		name: "hunt_smoke",
		why: "W=1 T>=3. 20 benchmark-generated specs at scale 0.02 under hunt's lone auditor: tiny tasks, so the " +
			"per-task driver path and per-run fixed costs (normalise, compile, assembly, teardown) weigh most.",
		warm: 1, minTimed: 3, prepare: prepareHunt,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fingerprint is what expected.json stores for a unit's output: the output
// itself when it is one short line, its SHA-256 otherwise.
func fingerprint(out string) string {
	if len(out) <= 160 && !strings.Contains(out, "\n") {
		return out
	}
	sum := sha256.Sum256([]byte(out))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// paperArtifacts is the paper set `sae-exp` regenerates, in the order the
// README runs it.
var paperArtifacts = []string{
	"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "interference",
}

func preparePaperSweep(seed int64, sz sizes) (*prepared, error) {
	setup := sae.DAS5().WithScale(sz.scale)
	setup.Seed = seed
	exps := sae.Experiments()
	for _, id := range paperArtifacts {
		if _, ok := exps[id]; !ok {
			return nil, fmt.Errorf("paper_sweep: experiment %q is gone", id)
		}
	}
	return &prepared{pass: func(tr *tracer) []unitResult {
		s := setup
		if tr != nil {
			s.Audit = tr.aud
		}
		out := make([]unitResult, 0, len(paperArtifacts))
		for _, id := range paperArtifacts {
			u := unitResult{id: id}
			tr.enter(nil, id)
			sp := tr.begin("exp.run", id)
			res, err := exps[id].Run(s)
			tr.end(sp)
			if err != nil {
				u.err = err
			} else {
				sp = tr.begin("exp.render", id)
				u.out = res.String()
				tr.end(sp)
			}
			out = append(out, u)
		}
		return out
	}}, nil
}

// observers selects the planes a goldens pass attaches; the benchmark runs
// with all three, the traced run's differencing passes with one at a time.
type observers struct{ audit, trace, metrics bool }

var allObservers = observers{audit: true, trace: true, metrics: true}

type goldenSpec struct {
	name string
	data []byte
}

func loadGoldens() ([]goldenSpec, error) {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		return nil, err
	}
	var specs []goldenSpec
	for _, e := range entries {
		data, err := specFS.ReadFile("specs/" + e.Name())
		if err != nil {
			return nil, err
		}
		specs = append(specs, goldenSpec{name: strings.TrimSuffix(e.Name(), ".yaml"), data: data})
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].name < specs[j].name })
	return specs, nil
}

func prepareGoldens(seed int64, sz sizes) (*prepared, error) {
	specs, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	// Parse once up front so a broken frozen spec fails set-up, not a pass;
	// every pass parses again, as `sae-run -scenario` does.
	for _, g := range specs {
		if _, err := scenario.Parse(g.name+".yaml", g.data); err != nil {
			return nil, err
		}
	}
	return &prepared{
		pass:   func(tr *tracer) []unitResult { return goldensPass(specs, seed, sz, allObservers, tr) },
		extras: func(x *traceCtx) error { return observerDifferencing(specs, x) },
	}, nil
}

// goldensPass runs each frozen spec the way
// `sae-run -scenario f -audit -trace -trace-v2 -metrics -prom` does, with
// every export going to a checksumming discard sink.
func goldensPass(specs []goldenSpec, seed int64, sz sizes, obs observers, tr *tracer) []unitResult {
	out := make([]unitResult, 0, len(specs))
	for _, g := range specs {
		u := unitResult{id: g.name}
		u.out, u.aux, u.err = runGolden(g, seed, sz, obs, tr)
		out = append(out, u)
	}
	return out
}

func runGolden(g goldenSpec, seed int64, sz sizes, obs observers, tr *tracer) (out, aux string, err error) {
	sp := tr.begin("scenario.parse", g.name)
	spec, err := scenario.Parse(g.name+".yaml", g.data)
	tr.end(sp)
	if err != nil {
		return "", "", err
	}
	setup := spec.BaseSetup().WithScale(sz.scale)
	setup.Seed = seed

	var aud *invariant.Auditor
	if obs.audit {
		aud = invariant.New()
		setup.Audit = aud
	}
	if tr != nil {
		// The probe wraps whatever auditor the pass attaches (possibly
		// none), so a traced pass always has engine counts and loop spans.
		tr.enter(setup.Audit, g.name)
		setup.Audit = tr.aud
	}
	traceOut := newSink(tr != nil)
	if obs.trace {
		setup.Trace = traceOut
		setup.TraceFormat = 2
	}
	var reg *telemetry.Registry
	if obs.metrics {
		reg = telemetry.NewRegistry()
		setup.Metrics = reg
	}

	sp = tr.begin("scenario.compile", g.name)
	c, err := spec.Compile(setup)
	tr.end(sp)
	if err != nil {
		return "", "", err
	}
	sp = tr.begin("scenario.run", g.name)
	res, err := c.Run()
	tr.end(sp)
	if err != nil {
		return "", "", err
	}
	sp = tr.begin("scenario.render", g.name)
	out = res.String()
	tr.end(sp)

	exportOut := newSink(false)
	if reg != nil {
		sp = tr.begin("telemetry.export", g.name)
		err = errors.Join(reg.WriteJSONL(exportOut), reg.WritePrometheus(exportOut))
		tr.end(sp)
		if err != nil {
			return "", "", err
		}
	}
	aux = fmt.Sprintf("trace %d bytes crc %08x; telemetry %d bytes crc %08x",
		traceOut.bytes, traceOut.crc.Sum32(), exportOut.bytes, exportOut.crc.Sum32())
	if tr != nil {
		tr.traceBytes += traceOut.bytes
		tr.traceWrites += traceOut.writes
		tr.traceBusy += traceOut.busy
		tr.exportBytes += exportOut.bytes
		if reg != nil {
			tr.countTelemetry(reg)
		}
	}

	if aud != nil {
		if vs := aud.Violations(); len(vs) > 0 {
			return out, aux, fmt.Errorf("%d invariant violation(s), first: %s", len(vs), vs[0])
		}
	}
	if f, ok := res.(interface{ Failures() []string }); ok {
		if fails := f.Failures(); len(fails) > 0 {
			return out, aux, fmt.Errorf("%d expectation(s) failed: %s", len(fails), strings.Join(fails, "; "))
		}
	}
	return out, aux, nil
}

// wideCell is one run of wide_cluster: the ShardedMatrix grayfail scan
// (internal/bench/sharded.go) re-declared here so the benchmark owns its
// load, at DFS replication 0 (every node holds every block) or 3.
type wideCell struct {
	name        string
	replication int
}

var wideCells = []wideCell{{"allrep", 0}, {"r3", 3}}

// wideRun builds one cell's engine options and job: a nodes-wide scan of 24
// 64 MiB blocks per node under transient task faults, a 3x slowdown on every
// 32nd node from 5 s, two 40 s heartbeat-dropping partitions, and a 10 ms
// control latency (the shard lookahead bound).
func wideRun(seed int64, nodes int, cell wideCell, shards int) (engine.Options, *job.JobSpec) {
	cfg := cluster.DAS5(nodes)
	cfg.Variability = device.DefaultVariability(seed)
	cfg.ControlLatency = 10 * time.Millisecond
	plan := &chaos.Plan{Name: "wide-" + cell.name, Seed: seed, TaskFaultRate: 0.02}
	for ex := 1; ex < nodes; ex += 32 {
		plan.Slows = append(plan.Slows, chaos.Slow{Exec: ex, At: 5 * time.Second, Factor: 3})
	}
	plan.Partitions = []chaos.Partition{
		{Exec: 2, At: 8 * time.Second, Duration: 40 * time.Second},
		{Exec: nodes - 3, At: 12 * time.Second, Duration: 40 * time.Second},
	}
	opts := engine.Options{
		Cluster:     cfg,
		BlockSize:   64 * device.MiB,
		Replication: cell.replication,
		Policy:      core.Default{},
		Faults:      plan,
		Inputs:      []engine.Input{{Name: "in", Size: int64(nodes) * 24 * 64 * device.MiB}},
		Shards:      shards,
	}
	spec := &job.JobSpec{
		Name:   "wide-" + cell.name,
		Stages: []*job.StageSpec{{ID: 0, Name: "scan", InputFile: "in", CPUSecondsPerTask: 0.35}},
	}
	return opts, spec
}

func prepareWide(seed int64, sz sizes) (*prepared, error) {
	if sz.wideNodes < 8 {
		return nil, fmt.Errorf("wide_cluster: %d nodes is too few for the fault plan", sz.wideNodes)
	}
	return &prepared{extras: shardRatios, pass: func(tr *tracer) []unitResult {
		out := make([]unitResult, 0, len(wideCells))
		for _, cell := range wideCells {
			u := unitResult{id: cell.name}
			u.out, u.err = runWideCell(seed, sz.wideNodes, cell, tr)
			out = append(out, u)
		}
		return out
	}}, nil
}

// runWideCell drives engine.NewEngine/Submit/Wait/Report directly. The
// kernel event count is deliberately left out of the output so a later
// change may elide events; the traced run reports it as a count.
func runWideCell(seed int64, nodes int, cell wideCell, tr *tracer) (string, error) {
	opts, spec := wideRun(seed, nodes, cell, 1)
	var before runtime.MemStats
	var t0 time.Time
	if tr != nil {
		tr.enter(nil, cell.name)
		opts.Audit = tr.aud
		opts.Policy = probePolicy{opts.Policy, &tr.policyCalls}
		runtime.ReadMemStats(&before)
		t0 = time.Now()
	}
	e, err := engine.NewEngine(opts)
	if err != nil {
		return "", err
	}
	h, err := e.Submit(spec)
	if err != nil {
		return "", err
	}
	if err := e.Wait(); err != nil {
		return "", err
	}
	sp := tr.begin("engine.report", cell.name)
	rep, err := h.Report()
	tr.end(sp)
	if err != nil {
		return "", err
	}
	if tr != nil {
		tr.cellWall[cell.name] = time.Since(t0).Seconds()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		tr.cellAllocMB[cell.name] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		tr.eventsFired += int64(e.FiredEvents())
	}
	return wideOutput(rep, nodes)
}

// wideOutput renders a cell's frozen result and checks the conservation the
// scan must keep at any seed: every block read exactly once by a winning task.
func wideOutput(rep *engine.JobReport, nodes int) (string, error) {
	st := rep.Stages[0]
	tasks := 0
	for _, ex := range st.Execs {
		tasks += ex.Tasks
	}
	attempts := tasks + st.Retries + st.Requeued + st.Speculative
	out := fmt.Sprintf("runtime=%s tasks=%d attempts=%d failed_attempts=%d input_bytes=%d",
		rep.Runtime, tasks, attempts, st.Retries, st.Bytes())
	if blocks := nodes * 24; tasks != blocks || st.Bytes() != int64(blocks)*64*device.MiB {
		return out, fmt.Errorf("scan of %d blocks of 64 MiB reports %s", blocks, out)
	}
	return out, nil
}

func prepareHunt(seed int64, sz sizes) (*prepared, error) {
	corpus, err := huntCorpus(seed, sz)
	if err != nil {
		return nil, err
	}
	return &prepared{
		pass: func(tr *tracer) []unitResult { return huntPass(corpus, seed, sz, tr) },
		extras: func(x *traceCtx) error {
			for _, tr := range x.tracers {
				if err := huntMirror(corpus, sz, tr); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// huntCorpus generates hunt_smoke's specs from the frozen goldens: variant i
// of each runs on sz.huntNodes[i] nodes under cluster seed seed+i.
func huntCorpus(seed int64, sz sizes) ([]*scenario.Spec, error) {
	specs, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	// The corpus is generated here, not by hunt's mutator: with Runs equal
	// to the corpus size hunt executes its phase 1 only, so the 20 specs do
	// not depend on the mutator's PRNG stream.
	var corpus []*scenario.Spec
	for _, g := range specs {
		for i, nodes := range sz.huntNodes {
			sp, err := scenario.Parse(g.name+".yaml", g.data)
			if err != nil {
				return nil, err
			}
			sp.Name = fmt.Sprintf("%s-v%d", g.name, i)
			sp.Cluster.Seed = seed + int64(i)
			sp.Cluster.Nodes = nodes
			corpus = append(corpus, sp)
		}
	}
	return corpus, nil
}

// huntPass is one hunt.Run over the generated corpus. Each executed spec is
// a unit, identified by hunt's own progress line for it; a last unit holds
// the hunt's summary tuple.
func huntPass(corpus []*scenario.Spec, seed int64, sz sizes, tr *tracer) []unitResult {
	var out []unitResult
	last := time.Now()
	opts := hunt.Options{
		Seed: seed, Runs: len(corpus), Scale: sz.huntScale, Corpus: corpus,
		Log: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			if !strings.HasPrefix(line, "run ") {
				return // shrink progress, not a unit
			}
			u := unitResult{id: fmt.Sprintf("run%02d", len(out)+1), out: line}
			if !strings.HasSuffix(line, ": clean") {
				u.err = errors.New(line)
			}
			out = append(out, u)
			if tr != nil {
				now := time.Now()
				tr.huntRunMs = append(tr.huntRunMs, float64(now.Sub(last))/float64(time.Millisecond))
				last = now
				if u.err == nil {
					tr.huntClean++
				} else if strings.Contains(line, "discarded") {
					tr.huntDiscarded++
				}
			}
		},
	}
	sp := tr.begin("hunt.run", "hunt")
	res, err := hunt.Run(opts)
	tr.end(sp)
	sum := unitResult{id: "result"}
	switch {
	case err != nil:
		sum.err = err
	default:
		sum.out = fmt.Sprintf("runs=%d shrink_runs=%d corpus_out=%d findings=%d",
			res.Runs, res.ShrinkRuns, res.CorpusOut, len(res.Findings))
		if len(res.Findings) > 0 {
			sum.err = fmt.Errorf("hunt found %d violation(s), first rule: %s", len(res.Findings), res.Findings[0].Rule)
		}
		if tr != nil {
			tr.huntRuns += int64(res.Runs)
			tr.huntCorpusOut = int64(res.CorpusOut)
			tr.huntCoverage = int64(len(res.Coverage))
		}
	}
	return append(out, sum)
}

// huntMirror runs every corpus spec the way hunt.runSpec does (normalise by
// Marshal∘Parse, override the scale, attach a fresh auditor, compile, run)
// but with the probe wrapped around the auditor: hunt builds its auditors
// itself, so this is the only way to get engine counts and scenario spans
// for the hunt_smoke load. Traced runs only.
func huntMirror(corpus []*scenario.Spec, sz sizes, tr *tracer) error {
	for _, sp := range corpus {
		s1 := tr.begin("scenario.marshal", sp.Name)
		data := scenario.Marshal(sp)
		tr.end(s1)
		s1 = tr.begin("scenario.parse", sp.Name)
		n, err := scenario.Parse(sp.Name+".yaml", data)
		tr.end(s1)
		if err != nil {
			return err
		}
		if sz.huntScale > 0 && sz.huntScale != n.Cluster.Scale {
			n.Cluster.Scale = sz.huntScale
			n.Expect = nil
		}
		aud := invariant.New()
		tr.enter(aud, sp.Name)
		setup := n.BaseSetup()
		setup.Audit = tr.aud
		s1 = tr.begin("scenario.compile", sp.Name)
		c, err := n.Compile(setup)
		tr.end(s1)
		if err != nil {
			return err
		}
		s1 = tr.begin("scenario.run", sp.Name)
		res, err := c.Run()
		tr.end(s1)
		if err != nil {
			return err
		}
		s1 = tr.begin("scenario.render", sp.Name)
		_ = res.String()
		tr.end(s1)
	}
	return nil
}
