package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one metric: its name, unit and, for end-to-end
// metrics, the share of the parent's median by which it may worsen before a
// change counts as a regression. Every metric is lower-is-better unless
// higher is set. BENCHMARK.json repeats these tables (a test keeps the two
// equal) because the driver reads the file and the program cannot embed a
// file outside its own directory.
type metricDef struct {
	name, unit string
	bound      float64
	higher     bool
}

// The bounds are set from measurement (README.md, "Noise"). The time bounds
// are about three times the typical spread across ten seeds, because the
// reference box's speed wanders by ±10 % over minutes. The allocation bounds
// exceed the whole range the metric takes across seeds (it is deterministic
// at one seed): one seed in four draws a straggler node on a 4-node cluster,
// a tenth more simulated work, and wide_cluster's object count follows its
// seeded task faults.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", bound: 0.25},
	{name: "cpu_s", unit: "s", bound: 0.25},
	{name: "alloc_mb", unit: "MB", bound: 0.20},
	{name: "mallocs_k", unit: "k", bound: 0.15},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// metricValue is one reported metric. Samples holds the per-pass values a
// median was taken over (result files only; the driver's line omits them).
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// runResult is one run of one workload, as written to -out files.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Short     bool                   `json:"short,omitempty"`
	Warm      int                    `json:"W"`
	Timed     int                    `json:"T"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailShare float64                `json:"fail_share"`
	Metrics   map[string]metricValue `json:"metrics"`
	Failures  []string               `json:"failures,omitempty"`
	CalibMs   float64                `json:"calib_ms"`
	DriftPct  float64                `json:"calib_drift_pct"`
	Env       envStamp               `json:"env"`
}

// passStats is what one pass cost the host.
type passStats struct {
	wall, cpu, allocMB, mallocsK float64
}

// measure runs one pass and returns its host cost. A collection runs first,
// outside the timed region, so every pass starts from the same heap state.
func measure(pass func()) passStats {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	t0 := time.Now()
	pass()
	wall := time.Since(t0)
	cpu1 := processCPU()
	runtime.ReadMemStats(&after)
	return passStats{
		wall:     wall.Seconds(),
		cpu:      (cpu1 - cpu0).Seconds(),
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		mallocsK: float64(after.Mallocs-before.Mallocs) / 1e3,
	}
}

// processCPU is the process's user plus system CPU time, which includes the
// collector's background workers on the second P.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checker decides which units failed. Pass 1 is the reference every later
// pass must reproduce byte for byte; where an expected table applies (the
// default seed at full size) each unit's fingerprint must also equal it.
type checker struct {
	expected  map[string]string // unit id → fingerprint; nil = no frozen table
	reference map[string]unitResult
	attempted int
	failed    int
	failures  []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// check folds one pass's results into the verdict.
func (c *checker) check(results []unitResult) {
	first := c.reference == nil
	if first {
		c.reference = make(map[string]unitResult, len(results))
	}
	for _, u := range results {
		c.attempted++
		switch {
		case u.err != nil:
			c.fail("%s: %v", u.id, u.err)
		case first:
			if want, ok := c.expected[u.id]; c.expected != nil && (!ok || want != fingerprint(u.out)) {
				c.fail("%s: output %s, expected.json has %q", u.id, fingerprint(u.out), want)
			}
		default:
			ref, ok := c.reference[u.id]
			if !ok || ref.out != u.out || ref.aux != u.aux {
				c.fail("%s: output differs from pass 1 (%s | %s)", u.id, fingerprint(u.out), u.aux)
			}
		}
		if first {
			c.reference[u.id] = u
		}
	}
	if !first && len(results) != len(c.reference) {
		c.fail("pass ran %d units, pass 1 ran %d", len(results), len(c.reference))
	}
	if first && c.expected != nil && len(results) != len(c.expected) {
		c.fail("pass ran %d units, expected.json lists %d", len(results), len(c.expected))
	}
}

// fingerprints is pass 1's unit → fingerprint table, what -write-expected
// freezes.
func (c *checker) fingerprints() map[string]string {
	out := make(map[string]string, len(c.reference))
	for id, u := range c.reference {
		out[id] = fingerprint(u.out)
	}
	return out
}

// config is what the flags select for one run.
type config struct {
	seed    int64
	seconds float64
	size    sizes
	short   bool
	// expected is the frozen output table, workload → unit → fingerprint,
	// or nil where none applies: other seeds generate other inputs, and
	// the short size is another load.
	expected map[string]map[string]string
	// tracedPasses overrides how many passes a traced run takes under the
	// probes (0 = the workload's default); the tests take two, so counts
	// are compared twice in a row.
	tracedPasses int
}

// expectedFor returns the workload's frozen table, or nil for no check.
func (cfg config) expectedFor(w workload) map[string]string {
	if cfg.expected == nil {
		return nil
	}
	if t, ok := cfg.expected[w.name]; ok {
		return t
	}
	return map[string]string{} // a frozen file without this workload: every unit fails
}

// runUntraced is the benchmark proper: set-up (input generation plus the
// warm-up passes), then timed passes one after the other — a closed loop
// with one client — until -seconds have been measured and the workload's
// minimum pass count is reached. Timings are medians over the timed passes.
func runUntraced(w workload, cfg config) (*runResult, *checker, error) {
	calib := calibrate()
	start := time.Now()
	p, err := w.prepare(cfg.seed, cfg.size)
	if err != nil {
		return nil, nil, err
	}
	chk := &checker{expected: cfg.expectedFor(w)}
	for i := 0; i < w.warm; i++ {
		runtime.GC()
		chk.check(p.pass(nil))
	}
	setup := time.Since(start)

	var stats []passStats
	timedStart := time.Now()
	for len(stats) < w.minTimed || time.Since(timedStart).Seconds() < cfg.seconds {
		var results []unitResult
		stats = append(stats, measure(func() { results = p.pass(nil) }))
		chk.check(results)
	}

	res := newRunResult(w, cfg, chk, len(stats))
	column := func(f func(passStats) float64) []float64 {
		out := make([]float64, len(stats))
		for i, s := range stats {
			out[i] = f(s)
		}
		return out
	}
	res.setMedian("wall_s", column(func(s passStats) float64 { return s.wall }))
	res.setMedian("cpu_s", column(func(s passStats) float64 { return s.cpu }))
	res.setMedian("alloc_mb", column(func(s passStats) float64 { return s.allocMB }))
	res.setMedian("mallocs_k", column(func(s passStats) float64 { return s.mallocsK }))
	res.Metrics["setup_s"] = metricValue{Value: setup.Seconds(), Unit: "s"}
	res.stampCalibration(calib)
	return res, chk, nil
}

func newRunResult(w workload, cfg config, chk *checker, timed int) *runResult {
	res := &runResult{
		Workload: w.name, Seed: cfg.seed, Short: cfg.short, Warm: w.warm, Timed: timed,
		Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed,
		Failures: chk.failures, Metrics: map[string]metricValue{}, Env: stampEnv(),
	}
	if chk.attempted > 0 {
		res.FailShare = float64(chk.failed) / float64(chk.attempted)
	}
	return res
}

func (r *runResult) setMedian(name string, samples []float64) {
	r.Metrics[name] = metricValue{Value: median(samples), Unit: unitOf(name), Samples: samples}
}

func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// stampCalibration times the calibration loop again after the workload and
// records how far the host drifted while it ran.
func (r *runResult) stampCalibration(before float64) {
	after := calibrate()
	r.CalibMs = before
	r.DriftPct = 100 * (after - before) / before
	if r.DriftPct > 10 || r.DriftPct < -10 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: host speed drifted %.1f%% during %s (calibration %.1f ms before, %.1f ms after); treat its timings with suspicion\n",
			r.DriftPct, r.Workload, before, after)
	}
}

// err is the run's verdict as main's exit status sees it.
func (r *runResult) err() error {
	if !r.Correct {
		return errUnitsFailed
	}
	return nil
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// cutPoint is the i-th of the n−1 cut points that divide v into n
// equal-probability intervals, computed the way Python's
// statistics.quantiles(v, n=n) does (the exclusive method) because that is
// what the driver computes spreads with. It is the one quantile rule of this
// program: the median is cutPoint(v, 1, 2), the quartiles cutPoint(v, 1..3, 4).
// An empty v yields 0, a single value itself.
func cutPoint(v []float64, i, n int) float64 {
	s := slices.Sorted(slices.Values(v))
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	j := min(max(i*(len(s)+1)/n, 1), len(s)-1)
	delta := i*(len(s)+1) - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

func median(v []float64) float64 { return cutPoint(v, 1, 2) }

// print writes the human-readable table for one run.
func (r *runResult) print(defs []metricDef) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  %s  W=%d T=%d  attempted %d failed %d fail_share %.6g\n",
		r.Workload, r.Seed, mode, r.Warm, r.Timed, r.Attempted, r.Failed, r.FailShare)
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", strings.ReplaceAll(f, "\n", " "))
	}
}
