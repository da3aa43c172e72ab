package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"sae/internal/engine"
	"sae/internal/telemetry"
)

// perLayer declares every per-layer metric a traced run prints, grouped by
// layer. A metric whose layer the workload does not exercise reads 0 there:
// that is the prediction ("flat on this workload") in its plainest form.
// Counts are deterministic; a speed-only change must leave them bit-identical.
var perLayer = []metricDef{
	// sim: ladder, ns per operation.
	{name: "sim.ring_ns", unit: "ns"}, {name: "sim.heap_ns", unit: "ns"},
	{name: "sim.resched_ns", unit: "ns"}, {name: "sim.cancel_ns", unit: "ns"},
	{name: "sim.handoff_ns", unit: "ns"}, {name: "sim.mailbox_ns", unit: "ns"},
	// sim shards: wall at Shards 2 over wall at Shards 1, wide_cluster cells.
	{name: "sim.shard.windowed2_ratio", unit: "ratio"}, {name: "sim.shard.merged2_ratio", unit: "ratio"},
	// psres, device, cluster, dfs: ladder.
	{name: "psres.serve_ns.s64", unit: "ns"}, {name: "psres.serve_ns.s1", unit: "ns"},
	{name: "device.hdd_curve_ns", unit: "ns"},
	{name: "cluster.new_us.n4", unit: "us"}, {name: "cluster.new_us.n256", unit: "us"},
	{name: "dfs.create_us.allrep", unit: "us"}, {name: "dfs.create_us.r3", unit: "us"},
	{name: "dfs.pick_ns.allrep", unit: "ns"}, {name: "dfs.pick_ns.r3", unit: "ns"}, {name: "dfs.pick_ns.n4", unit: "ns"},
	{name: "dfs.checksum_failovers", unit: "count"},
	// engine: spans and counts of the traced pass.
	{name: "engine.runs", unit: "count"}, {name: "engine.assemble_s", unit: "s"},
	{name: "engine.loop_s", unit: "s"}, {name: "engine.loop_self_s", unit: "s"},
	{name: "engine.trace_events", unit: "count"}, {name: "engine.us_per_trace_event", unit: "us"},
	{name: "engine.events_fired", unit: "count"}, {name: "engine.us_per_event", unit: "us"},
	{name: "engine.report_s", unit: "s"},
	{name: "wide.allrep_s", unit: "s"}, {name: "wide.r3_s", unit: "s"},
	{name: "wide.allrep_assemble_s", unit: "s"}, {name: "wide.r3_assemble_s", unit: "s"},
	{name: "wide.allrep_alloc_mb", unit: "MB"}, {name: "wide.r3_alloc_mb", unit: "MB"},
	{name: "wide.pass_p70_s", unit: "s"},
	{name: "engine.tiny_run_us", unit: "us"}, {name: "engine.terasort_us_per_event", unit: "us"},
	// scheduler, executor, execmgr, shuffle, autoscale: denominators.
	{name: "scheduler.task_launches", unit: "count"}, {name: "scheduler.task_accepts", unit: "count"},
	{name: "scheduler.jobs", unit: "count"}, {name: "scheduler.slot_reclaims", unit: "count"},
	{name: "scheduler.stage_resubmits", unit: "count"}, {name: "scheduler.speculations", unit: "count"},
	{name: "executor.resizes", unit: "count"}, {name: "executor.task_fails", unit: "count"},
	{name: "execmgr.suspects", unit: "count"}, {name: "execmgr.losses", unit: "count"}, {name: "execmgr.epochs", unit: "count"},
	{name: "shuffle.registrations", unit: "count"}, {name: "shuffle.duplicates", unit: "count"},
	{name: "shuffle.node_losses", unit: "count"},
	{name: "autoscale.scale_ups", unit: "count"}, {name: "autoscale.drains", unit: "count"},
	// core.
	{name: "core.dynamic_taskdone_ns", unit: "ns"}, {name: "core.controller_calls", unit: "count"},
	// observers.
	{name: "invariant.hook_calls", unit: "count"}, {name: "invariant.busy_s", unit: "s"}, {name: "invariant.ns_per_hook", unit: "ns"},
	{name: "trace.bytes", unit: "bytes"}, {name: "trace.writes", unit: "count"}, {name: "trace.write_busy_s", unit: "s"},
	{name: "telemetry.samples", unit: "count"}, {name: "telemetry.series", unit: "count"},
	{name: "telemetry.export_s", unit: "s"}, {name: "telemetry.export_bytes", unit: "bytes"},
	{name: "observers.none_s", unit: "s"}, {name: "observers.trace_s", unit: "s"},
	{name: "observers.audit_s", unit: "s"}, {name: "observers.metrics_s", unit: "s"},
	{name: "observers.all_s", unit: "s"}, {name: "observers.overhead_share", unit: "ratio"},
	// scenario, exp, arrival, hunt.
	{name: "scenario.parse_s", unit: "s"}, {name: "scenario.compile_s", unit: "s"},
	{name: "scenario.run_s", unit: "s"}, {name: "scenario.render_s", unit: "s"},
	{name: "scenario.parse_us", unit: "us"}, {name: "scenario.marshal_us", unit: "us"},
	{name: "exp.run_s", unit: "s"}, {name: "exp.render_s", unit: "s"},
	{name: "exp.fig8_s", unit: "s"}, {name: "exp.fig9_s", unit: "s"},
	{name: "arrival.generate_ns_per_job", unit: "ns"},
	{name: "hunt.runs", unit: "count"}, {name: "hunt.clean", unit: "count", higher: true},
	{name: "hunt.discarded", unit: "count"}, {name: "hunt.corpus_out", unit: "count"},
	{name: "hunt.coverage_signals", unit: "count", higher: true},
	{name: "hunt.run_p50_ms", unit: "ms"}, {name: "hunt.run_max_ms", unit: "ms"},
	// runtime and host.
	{name: "runtime.gc_cycles", unit: "count"}, {name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "runtime.peak_rss_mb", unit: "MB"}, {name: "runtime.heap_sys_mb", unit: "MB"},
	{name: "host.calib_ms", unit: "ms"}, {name: "host.calib_drift_pct", unit: "%"},
	{name: "probe.overhead_pct", unit: "%"},
}

// tracer is the probe set of one traced pass. A nil tracer is tracing off:
// begin, end and enter do nothing.
type tracer struct {
	rec *recorder
	aud *probeAudit

	traceBytes, traceWrites, exportBytes int64
	traceBusy                            time.Duration
	telemetrySamples, telemetrySeries    int64
	policyCalls                          int64

	eventsFired int64
	cellWall    map[string]float64
	cellAllocMB map[string]float64

	huntRuns, huntClean, huntDiscarded int64
	huntCorpusOut, huntCoverage        int64
	huntRunMs                          []float64
}

func newTracer(epoch time.Time) *tracer {
	rec := &recorder{epoch: epoch}
	return &tracer{
		rec: rec, aud: newProbeAudit(rec),
		cellWall: map[string]float64{}, cellAllocMB: map[string]float64{},
	}
}

func (tr *tracer) begin(name, unit string) int {
	if tr == nil {
		return -1
	}
	return tr.rec.begin(name, unit)
}

func (tr *tracer) end(id int) {
	if tr != nil {
		tr.rec.end(id)
	}
}

// enter tells the audit probe which unit's public call is about to build
// engines, and which real auditor (nil for none) to forward to.
func (tr *tracer) enter(inner engine.Audit, unit string) {
	if tr != nil {
		tr.aud.enter(inner, unit)
	}
}

// countTelemetry adds one registry's sample and distinct-series counts.
func (tr *tracer) countTelemetry(reg *telemetry.Registry) {
	type key struct{ metric, labels string }
	samples := reg.Samples()
	series := make(map[key]struct{})
	for _, sp := range samples {
		series[key{sp.Metric, sp.Labels}] = struct{}{}
	}
	tr.telemetrySamples += int64(len(samples))
	tr.telemetrySeries += int64(len(series))
}

// layerMetrics derives the span- and count-based metrics of one traced pass.
func (tr *tracer) layerMetrics() map[string]float64 {
	rec, aud := tr.rec, tr.aud
	m := map[string]float64{}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	loop := sec(rec.total("engine.loop"))
	m["engine.runs"] = float64(aud.runs)
	m["engine.loop_s"] = loop
	m["engine.loop_self_s"] = loop - sec(aud.busy) - sec(tr.traceBusy)
	for _, d := range aud.gap {
		m["engine.assemble_s"] += sec(d)
	}
	events := float64(aud.traceEvents())
	m["engine.trace_events"] = events
	m["engine.us_per_trace_event"] = ratio(loop*1e6, events)
	m["engine.events_fired"] = float64(tr.eventsFired)
	m["engine.us_per_event"] = ratio(loop*1e6, float64(tr.eventsFired))
	m["engine.report_s"] = sec(rec.total("engine.report"))
	for _, cell := range wideCells {
		m["wide."+cell.name+"_s"] = tr.cellWall[cell.name]
		m["wide."+cell.name+"_assemble_s"] = sec(aud.gap[cell.name])
		m["wide."+cell.name+"_alloc_mb"] = tr.cellAllocMB[cell.name]
	}

	for metric, event := range map[string]string{
		"scheduler.task_launches":   engine.TraceTaskLaunch,
		"scheduler.stage_resubmits": engine.TraceStageResubmit,
		"scheduler.speculations":    engine.TraceSpeculate,
		"executor.resizes":          engine.TraceResize,
		"executor.task_fails":       engine.TraceTaskFail,
		"execmgr.suspects":          engine.TraceExecSuspect,
		"execmgr.losses":            engine.TraceExecLost,
		"autoscale.scale_ups":       engine.TraceScaleUp,
		"autoscale.drains":          engine.TraceDrain,
		"dfs.checksum_failovers":    engine.TraceChecksum,
	} {
		m[metric] = float64(aud.events[event])
	}
	m["scheduler.task_accepts"] = float64(aud.accepts)
	m["scheduler.jobs"] = float64(aud.jobs)
	m["scheduler.slot_reclaims"] = float64(aud.reclaims)
	m["execmgr.epochs"] = float64(aud.epochs)
	m["shuffle.registrations"] = float64(aud.shuffles)
	m["shuffle.duplicates"] = float64(aud.shuffleDu)
	m["shuffle.node_losses"] = float64(aud.nodeLoss)
	m["core.controller_calls"] = float64(tr.policyCalls)

	m["invariant.hook_calls"] = float64(aud.hooks)
	m["invariant.busy_s"] = sec(aud.busy)
	m["invariant.ns_per_hook"] = ratio(sec(aud.busy)*1e9, float64(aud.hooks))
	m["trace.bytes"] = float64(tr.traceBytes)
	m["trace.writes"] = float64(tr.traceWrites)
	m["trace.write_busy_s"] = sec(tr.traceBusy)
	m["telemetry.samples"] = float64(tr.telemetrySamples)
	m["telemetry.series"] = float64(tr.telemetrySeries)
	m["telemetry.export_s"] = sec(rec.total("telemetry.export"))
	m["telemetry.export_bytes"] = float64(tr.exportBytes)

	for _, name := range []string{"scenario.parse", "scenario.compile", "scenario.run", "scenario.render", "exp.run", "exp.render"} {
		m[name+"_s"] = sec(rec.total(name))
	}
	m["exp.fig8_s"] = sec(rec.totalUnit("exp.run", "fig8"))
	m["exp.fig9_s"] = sec(rec.totalUnit("exp.run", "fig9"))

	m["hunt.runs"] = float64(tr.huntRuns)
	m["hunt.clean"] = float64(tr.huntClean)
	m["hunt.discarded"] = float64(tr.huntDiscarded)
	m["hunt.corpus_out"] = float64(tr.huntCorpusOut)
	m["hunt.coverage_signals"] = float64(tr.huntCoverage)
	m["hunt.run_p50_ms"] = median(tr.huntRunMs)
	if len(tr.huntRunMs) > 0 {
		m["hunt.run_max_ms"] = slices.Max(tr.huntRunMs)
	}
	return m
}

// isCount reports whether a per-layer metric is a deterministic count.
func isCount(name string) bool {
	u := unitOf(name)
	return u == "count" || u == "bytes"
}

// traceCtx is what a workload's extra traced-run measurements work with.
type traceCtx struct {
	cfg      config
	tracers  []*tracer // one probe set per traced pass; extras may add to them
	chk      *checker
	baseWall []float64 // wall times of the untraced base passes
	out      map[string]float64
}

// rec is where extras that take their own timings record their spans.
func (x *traceCtx) rec() *recorder { return x.tracers[len(x.tracers)-1].rec }

// runTraced is the layer-attributed run: untraced base passes (the
// reference outputs and the base of probe.overhead_pct), the same passes
// again under the probes, the workload's own extra measurements, then the
// ladder. Its timings are never gated; the untraced run's are.
func runTraced(w workload, cfg config) (*runResult, []*recorder, error) {
	epoch := time.Now()
	calib := calibrate()
	p, err := w.prepare(cfg.seed, cfg.size)
	if err != nil {
		return nil, nil, err
	}
	chk := &checker{expected: cfg.expectedFor(w)}
	warm, base, traced := 0, 1, 1
	if w.minTimed >= 20 { // sub-second passes: medians over several
		warm, base, traced = w.warm, w.minTimed, 5
	}
	if cfg.tracedPasses > 0 {
		traced = cfg.tracedPasses
	}
	for i := 0; i < warm; i++ {
		runtime.GC()
		chk.check(p.pass(nil))
	}

	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	baseWall := make([]float64, 0, base)
	for i := 0; i < base; i++ {
		var results []unitResult
		baseWall = append(baseWall, measure(func() { results = p.pass(nil) }).wall)
		chk.check(results)
	}
	runtime.ReadMemStats(&gc1)

	tracers := make([]*tracer, 0, traced)
	tracedWall := make([]float64, 0, traced)
	for i := 0; i < traced; i++ {
		tr := newTracer(epoch)
		var results []unitResult
		sp := tr.begin("pass", w.name)
		tracedWall = append(tracedWall, measure(func() { results = p.pass(tr) }).wall)
		tr.end(sp)
		chk.check(results)
		tracers = append(tracers, tr)
	}
	peakRSS := peakRSSMB()

	out := map[string]float64{}
	if p.extras != nil {
		x := &traceCtx{cfg: cfg, tracers: tracers, chk: chk, baseWall: baseWall, out: out}
		if err := p.extras(x); err != nil {
			return nil, nil, err
		}
	}

	// Timings are medians over the traced passes; counts must agree on
	// every traced pass, which is the determinism they are trusted for.
	perPass := make([]map[string]float64, len(tracers))
	for i, tr := range tracers {
		perPass[i] = tr.layerMetrics()
	}
	for name := range perPass[0] {
		vals := make([]float64, len(perPass))
		for i, m := range perPass {
			vals[i] = m[name]
			if isCount(name) && m[name] != perPass[0][name] {
				chk.fail("count %s differs between traced passes: %v vs %v", name, perPass[0][name], m[name])
			}
		}
		out[name] = median(vals)
	}

	ladderRec := &recorder{epoch: epoch}
	if err := runLadder(cfg.seed, cfg.size, ladderRec, out); err != nil {
		return nil, nil, err
	}

	out["runtime.gc_cycles"] = float64(gc1.NumGC-gc0.NumGC) / float64(base)
	out["runtime.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6 / float64(base)
	out["runtime.peak_rss_mb"] = peakRSS
	out["runtime.heap_sys_mb"] = float64(gc1.HeapSys) / 1e6
	out["probe.overhead_pct"] = 100 * (median(tracedWall)/median(baseWall) - 1)

	res := newRunResult(w, cfg, chk, base)
	res.Traced, res.Warm = true, warm
	res.stampCalibration(calib)
	out["host.calib_ms"] = res.CalibMs
	out["host.calib_drift_pct"] = res.DriftPct
	for name, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.set(name, v) // panics on a name perLayer does not declare
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			res.set(d.name, 0) // a layer this workload does not exercise
		}
	}

	recs := []*recorder{ladderRec}
	for _, tr := range tracers {
		recs = append(recs, tr.rec)
	}
	return res, recs, nil
}

// observerDifferencing runs the five specs again with the observer planes
// attached one at a time, untraced, so each plane's cost is the difference
// from the bare pass. Whatever the selection, the report text must equal the
// fully observed pass's: attaching an observer may not perturb a run.
func observerDifferencing(specs []goldenSpec, x *traceCtx) error {
	for _, sel := range []struct {
		metric string
		obs    observers
	}{
		{"observers.none_s", observers{}},
		{"observers.trace_s", observers{trace: true}},
		{"observers.audit_s", observers{audit: true}},
		{"observers.metrics_s", observers{metrics: true}},
	} {
		var results []unitResult
		sp := x.rec().begin(sel.metric, "differencing")
		st := measure(func() { results = goldensPass(specs, x.cfg.seed, x.cfg.size, sel.obs, nil) })
		x.rec().end(sp)
		x.out[sel.metric] = st.wall
		for i := range results {
			results[i].aux = x.chk.reference[results[i].id].aux // exports differ by design
		}
		x.chk.check(results)
	}
	x.out["observers.all_s"] = median(x.baseWall)
	x.out["observers.overhead_share"] = 1 - x.out["observers.none_s"]/x.out["observers.all_s"]
	return nil
}

// shardRatios times each wide_cluster cell at Shards 1 and Shards 2 with no
// probe attached (an auditor forces the merged path): evidence for whether
// sharding earns its keep. No gated workload runs sharded.
func shardRatios(x *traceCtx) error {
	cfg, rec, chk, out := x.cfg, x.rec(), x.chk, x.out
	out["wide.pass_p70_s"] = cutPoint(x.baseWall, 7, 10)
	const reps = 3
	for _, cell := range wideCells {
		wall := map[int][]float64{}
		for i := 0; i < reps; i++ {
			for _, shards := range []int{1, 2} {
				opts, spec := wideRun(cfg.seed, cfg.size.wideNodes, cell, shards)
				runtime.GC()
				sp := rec.begin(fmt.Sprintf("sim.shard.%s.shards%d", cell.name, shards), cell.name)
				t0 := time.Now()
				e, err := engine.NewEngine(opts)
				if err != nil {
					return err
				}
				h, err := e.Submit(spec)
				if err != nil {
					return err
				}
				if err := e.Wait(); err != nil {
					return err
				}
				rep, err := h.Report()
				wall[shards] = append(wall[shards], time.Since(t0).Seconds())
				rec.end(sp)
				if err != nil {
					return err
				}
				if cell.replication == 0 && shards > 1 && !e.Windowed() {
					chk.fail("%s at Shards %d fell off the windowed path", cell.name, shards)
				}
				if got, err := wideOutput(rep, cfg.size.wideNodes); err != nil {
					chk.fail("%s at Shards %d: %v", cell.name, shards, err)
				} else if shards == 1 && got != chk.reference[cell.name].out {
					chk.fail("%s at Shards 1 without probes: %s, pass 1 had %s", cell.name, got, chk.reference[cell.name].out)
				}
			}
		}
		name := "sim.shard.windowed2_ratio"
		if cell.replication != 0 {
			name = "sim.shard.merged2_ratio"
		}
		out[name] = median(wall[2]) / median(wall[1])
	}
	return nil
}
