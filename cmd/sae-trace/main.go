// Command sae-trace analyzes an engine event log written by sae-run -trace
// (or a headerless pre-v2 log) and prints a critical-path breakdown per job,
// an ASCII stage gantt, and per-executor utilization timelines. Every run
// starts its part of the log with a header line, so a log that several runs
// wrote (a matrix scenario) is analyzed one run at a time, "run k of n",
// each on its own clock. With -metrics it also summarizes a telemetry JSONL
// dump written by sae-run -metrics.
//
// Usage:
//
//	sae-trace [-metrics dump.jsonl] [-width N] trace.jsonl
//
// The critical-path breakdown attributes every instant of the job's makespan
// to the stage that is on the critical path at that instant: among all stages
// active at time t, the one that finishes last (ties broken toward the lower
// stage ID). Instants covered by no stage — scheduling gaps, recovery
// windows — are reported as queue/wait.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"sae/internal/engine"
	"sae/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sae-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sae-trace", flag.ContinueOnError)
	metricsFile := fs.String("metrics", "", "also summarize this telemetry JSONL dump")
	width := fs.Int("width", 40, "width of the ASCII gantt and utilization bars")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sae-trace [-metrics dump.jsonl] [-width N] trace.jsonl")
	}
	if *width < 10 {
		*width = 10
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	runs, err := engine.ReadTraceRuns(f)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		runs = []engine.TraceRun{{}} // an empty log: one run of no events
	}
	for i, r := range runs {
		a := analyze(r.Events)
		a.width = *width
		name, format := fs.Arg(0), "v1, flat"
		if len(runs) > 1 {
			if i > 0 {
				fmt.Fprintln(w)
			}
			name += fmt.Sprintf(" run %d of %d", i+1, len(runs))
		}
		if r.Header != nil {
			format = fmt.Sprintf("v%d, %s", r.Header.Version, r.Header.Format)
		}
		fmt.Fprintf(w, "trace: %s (%s), %d events, horizon %s\n", name, format, len(r.Events), fmtDur(a.horizon))
		a.printJobs(w)
		a.printExecutors(w)
	}

	if *metricsFile != "" {
		mf, err := os.Open(*metricsFile)
		if err != nil {
			return err
		}
		defer mf.Close()
		samples, err := telemetry.ReadJSONL(mf)
		if err != nil {
			return err
		}
		printMetricsSummary(w, *metricsFile, samples)
	}
	return nil
}

// interval is one [start, end) span of activity on the virtual clock.
type interval struct {
	start, end time.Duration
}

func (iv interval) len() time.Duration { return iv.end - iv.start }

// stageRun is one execution (or re-execution after recovery) of a stage.
type stageRun struct {
	id     int
	detail string
	iv     interval
	open   bool
}

// jobTrace is everything the analyzer knows about one job.
type jobTrace struct {
	id     int
	name   string
	iv     interval
	open   bool
	failed string // job_end detail when the job failed
	stages []*stageRun
}

// attempt is one task attempt running on an executor.
type attempt struct {
	iv   interval
	open bool
}

type analysis struct {
	horizon time.Duration
	jobs    []*jobTrace
	execs   map[int][]*attempt
	width   int
}

// analyze folds the flat event list into per-job stage intervals and
// per-executor attempt intervals. Events arrive in time order.
func analyze(events []engine.TraceEvent) *analysis {
	a := &analysis{execs: map[int][]*attempt{}}
	jobs := map[int]*jobTrace{}
	type taskKey struct{ job, stage, task, exec int }
	openAttempts := map[taskKey]*attempt{}

	jobOf := func(id int, at time.Duration) *jobTrace {
		jt, ok := jobs[id]
		if !ok {
			jt = &jobTrace{id: id, iv: interval{start: at}, open: true}
			jobs[id] = jt
			a.jobs = append(a.jobs, jt)
		}
		return jt
	}
	for _, ev := range events {
		at := time.Duration(math.Round(ev.At * 1e9))
		if at > a.horizon {
			a.horizon = at
		}
		switch ev.Type {
		case engine.TraceJobStart:
			jt := jobOf(ev.Job, at)
			jt.name = ev.Detail
			jt.iv.start = at
		case engine.TraceJobEnd:
			jt := jobOf(ev.Job, at)
			jt.iv.end = at
			jt.open = false
			if ev.Stage >= 0 { // failed jobs carry the failing stage + error
				jt.failed = ev.Detail
			}
		case engine.TraceStageStart:
			jt := jobOf(ev.Job, at)
			jt.stages = append(jt.stages, &stageRun{
				id: ev.Stage, detail: ev.Detail,
				iv: interval{start: at}, open: true,
			})
		case engine.TraceStageEnd:
			jt := jobOf(ev.Job, at)
			// Close the most recent open run of this stage; recovery
			// re-executions append a second run under the same ID.
			for i := len(jt.stages) - 1; i >= 0; i-- {
				if s := jt.stages[i]; s.id == ev.Stage && s.open {
					s.iv.end = at
					s.open = false
					break
				}
			}
		case engine.TraceTaskLaunch:
			at0 := &attempt{iv: interval{start: at}, open: true}
			a.execs[ev.Exec] = append(a.execs[ev.Exec], at0)
			openAttempts[taskKey{ev.Job, ev.Stage, ev.Task, ev.Exec}] = at0
		case engine.TraceTaskEnd, engine.TraceTaskFail:
			k := taskKey{ev.Job, ev.Stage, ev.Task, ev.Exec}
			if at0, ok := openAttempts[k]; ok {
				at0.iv.end = at
				at0.open = false
				delete(openAttempts, k)
			}
		case engine.TraceExecCrash, engine.TraceExecLost:
			// Every in-flight attempt on the executor dies with it.
			for k, at0 := range openAttempts {
				if k.exec == ev.Exec {
					at0.iv.end = at
					at0.open = false
					delete(openAttempts, k)
				}
			}
		}
	}
	// Close anything still open at the horizon (truncated traces).
	for _, jt := range a.jobs {
		if jt.open {
			jt.iv.end = a.horizon
		}
		for _, s := range jt.stages {
			if s.open {
				s.iv.end = a.horizon
			}
		}
	}
	for _, ats := range a.execs {
		for _, at0 := range ats {
			if at0.open {
				at0.iv.end = a.horizon
			}
		}
	}
	sort.Slice(a.jobs, func(i, j int) bool { return a.jobs[i].id < a.jobs[j].id })
	return a
}

// criticalPath attributes each instant of the job's makespan to one stage
// (the active stage finishing last, ties toward the lower ID) or to
// queue/wait. Returns per-stage-run durations, index-aligned with jt.stages,
// plus the waiting total.
func criticalPath(jt *jobTrace) (perRun []time.Duration, wait time.Duration) {
	perRun = make([]time.Duration, len(jt.stages))
	cuts := []time.Duration{jt.iv.start, jt.iv.end}
	for _, s := range jt.stages {
		cuts = append(cuts, s.iv.start, s.iv.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if b <= a || a < jt.iv.start || b > jt.iv.end {
			continue
		}
		best := -1
		for idx, s := range jt.stages {
			if s.iv.start > a || s.iv.end < b {
				continue // not active over the whole segment
			}
			if best < 0 {
				best = idx
				continue
			}
			bs := jt.stages[best]
			if s.iv.end > bs.iv.end || (s.iv.end == bs.iv.end && s.id < bs.id) {
				best = idx
			}
		}
		if best < 0 {
			wait += b - a
		} else {
			perRun[best] += b - a
		}
	}
	return perRun, wait
}

func (a *analysis) printJobs(w io.Writer) {
	for _, jt := range a.jobs {
		makespan := jt.iv.len()
		name := jt.name
		if name == "" {
			name = fmt.Sprintf("job %d", jt.id)
		}
		fmt.Fprintf(w, "\ncritical path (job %d %q, makespan %s):\n", jt.id, name, fmtDur(makespan))
		if jt.failed != "" {
			fmt.Fprintf(w, "  job failed: %s\n", jt.failed)
		}
		perRun, wait := criticalPath(jt)
		for i, s := range jt.stages {
			if perRun[i] <= 0 {
				continue
			}
			label := fmt.Sprintf("stage %d", s.id)
			if s.detail != "" {
				label += " " + s.detail
			}
			fmt.Fprintf(w, "  %-34s %10s  %5.1f%%\n", label, fmtDur(perRun[i]), pct(perRun[i], makespan))
		}
		if wait > 0 {
			fmt.Fprintf(w, "  %-34s %10s  %5.1f%%\n", "queue/wait", fmtDur(wait), pct(wait, makespan))
		}

		fmt.Fprintf(w, "stage gantt (job %d, %s total):\n", jt.id, fmtDur(makespan))
		for _, s := range jt.stages {
			bar := ganttBar(s.iv, jt.iv, a.width)
			fmt.Fprintf(w, "  stage %2d |%s| %s – %s\n", s.id, bar,
				fmtDur(s.iv.start-jt.iv.start), fmtDur(s.iv.end-jt.iv.start))
		}
	}
}

// ganttBar renders one stage interval as a bar inside the job window.
func ganttBar(iv, win interval, width int) string {
	b := []byte(strings.Repeat(" ", width))
	span := win.len()
	if span <= 0 {
		return string(b)
	}
	lo := int(float64(iv.start-win.start) / float64(span) * float64(width))
	hi := int(math.Ceil(float64(iv.end-win.start) / float64(span) * float64(width)))
	if lo < 0 {
		lo = 0
	}
	if hi > width {
		hi = width
	}
	if hi <= lo {
		hi = lo + 1
		if hi > width {
			lo, hi = width-1, width
		}
	}
	for i := lo; i < hi; i++ {
		b[i] = '#'
	}
	return string(b)
}

func (a *analysis) printExecutors(w io.Writer) {
	if len(a.execs) == 0 || a.horizon <= 0 {
		return
	}
	ids := make([]int, 0, len(a.execs))
	for id := range a.execs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintf(w, "\nexecutor utilization (horizon %s):\n", fmtDur(a.horizon))
	for _, id := range ids {
		ats := a.execs[id]
		busy := unionLen(ats)
		var taskSec time.Duration
		for _, at0 := range ats {
			taskSec += at0.iv.len()
		}
		strip := utilStrip(ats, a.horizon, a.width)
		fmt.Fprintf(w, "  exec %2d  busy %5.1f%%  avg %4.1f tasks  %4d attempts  [%s]\n",
			id, pct(busy, a.horizon), float64(taskSec)/float64(a.horizon), len(ats), strip)
	}
}

// unionLen is the total time covered by at least one attempt.
func unionLen(ats []*attempt) time.Duration {
	ivs := make([]interval, len(ats))
	for i, at0 := range ats {
		ivs[i] = at0.iv
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, end time.Duration
	end = -1
	for _, iv := range ivs {
		if iv.start > end {
			total += iv.len()
			end = iv.end
		} else if iv.end > end {
			total += iv.end - end
			end = iv.end
		}
	}
	return total
}

// utilStrip renders average concurrency per time bucket as an ASCII ramp.
func utilStrip(ats []*attempt, horizon time.Duration, width int) string {
	const ramp = " .:-=+*#%@"
	busy := make([]time.Duration, width) // task-time per bucket
	bucket := horizon / time.Duration(width)
	if bucket <= 0 {
		return strings.Repeat(" ", width)
	}
	for _, at0 := range ats {
		for i := 0; i < width; i++ {
			lo := time.Duration(i) * bucket
			hi := lo + bucket
			s, e := at0.iv.start, at0.iv.end
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			if e > s {
				busy[i] += e - s
			}
		}
	}
	var maxConc float64
	conc := make([]float64, width)
	for i, b := range busy {
		conc[i] = float64(b) / float64(bucket)
		if conc[i] > maxConc {
			maxConc = conc[i]
		}
	}
	out := make([]byte, width)
	for i := range out {
		if maxConc <= 0 {
			out[i] = ' '
			continue
		}
		lvl := int(conc[i] / maxConc * float64(len(ramp)-1))
		out[i] = ramp[lvl]
	}
	return string(out)
}

// printMetricsSummary prints one line per metric series in a JSONL dump.
func printMetricsSummary(w io.Writer, path string, samples []telemetry.SamplePoint) {
	type key struct{ metric, labels string }
	type agg struct {
		count               int
		min, max, sum, last float64
	}
	byKey := map[key]*agg{}
	var keys []key
	for _, s := range samples {
		k := key{s.Metric, s.Labels}
		a, ok := byKey[k]
		if !ok {
			a = &agg{min: math.Inf(1), max: math.Inf(-1)}
			byKey[k] = a
			keys = append(keys, k)
		}
		a.count++
		a.sum += s.Value
		a.last = s.Value
		if s.Value < a.min {
			a.min = s.Value
		}
		if s.Value > a.max {
			a.max = s.Value
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].metric != keys[j].metric {
			return keys[i].metric < keys[j].metric
		}
		return keys[i].labels < keys[j].labels
	})
	fmt.Fprintf(w, "\nmetrics summary (%s, %d samples, %d series):\n", path, len(samples), len(keys))
	fmt.Fprintf(w, "  %-44s %6s %12s %12s %12s %12s\n", "series", "n", "min", "mean", "max", "last")
	for _, k := range keys {
		a := byKey[k]
		name := k.metric
		if k.labels != "" {
			name += "{" + k.labels + "}"
		}
		fmt.Fprintf(w, "  %-44s %6d %12s %12s %12s %12s\n", name, a.count,
			fmtVal(a.min), fmtVal(a.sum/float64(a.count)), fmtVal(a.max), fmtVal(a.last))
	}
}

func fmtVal(v float64) string {
	return fmt.Sprintf("%.4g", v)
}

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fs", d.Seconds())
}
