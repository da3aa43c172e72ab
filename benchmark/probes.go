package main

import (
	"encoding/json"
	"hash"
	"hash/crc32"
	"io"
	"strings"
	"time"

	"sae/internal/engine"
	"sae/internal/engine/job"
)

// The probes live only in this package: the program under test is observed
// through its public hooks (engine.Options.Audit/Trace/Policy, the span
// calls the workloads place around each public call), never edited.

// span is one timed interval at a layer boundary. Times are offsets from
// the recorder's epoch; parent is an index into the recorder, -1 for roots.
type span struct {
	name       string
	unit       string
	start, end time.Duration
	parent     int
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// tracing-off state: begin and end are no-ops, so the workloads carry one
// code path. Spans open and close in stack order; the simulator runs one
// process at a time under a baton, so hooks fired from simulated processes
// see a consistent stack without locking.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name, unit string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, unit: unit, start: time.Since(r.epoch), end: -1, parent: parent})
	r.open = append(r.open, id)
	return id
}

// end closes span id, and with it any span still open inside it (an engine
// run that died before EndRun leaves one). Ending a span that is not open
// does nothing.
func (r *recorder) end(id int) {
	if r == nil || id < 0 || r.spans[id].end >= 0 {
		return
	}
	now := time.Since(r.epoch)
	for n := len(r.open); n > 0; n = len(r.open) {
		top := r.open[n-1]
		r.open = r.open[:n-1]
		r.spans[top].end = now
		if top == id {
			return
		}
	}
}

// total sums the durations of every span called name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// totalUnit sums the durations of spans called name that belong to unit.
func (r *recorder) totalUnit(name, unit string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.name == name && s.unit == unit {
			d += s.end - s.start
		}
	}
	return d
}

// selfTimes returns each span's duration minus the part its children cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeChrome renders the recorders' spans as Chrome trace-event JSON
// (complete "X" events, microsecond timestamps), the format chrome://tracing
// and Perfetto open directly. The recorders share one epoch; span ids are
// made unique across them.
func writeChrome(w io.Writer, recs []*recorder) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []event{}
	for _, r := range recs {
		base := len(events)
		self := r.selfTimes()
		for i, s := range r.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + s.parent
			}
			events = append(events, event{
				Name: s.name, Cat: layerOf(s.name), Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
				Args: map[string]any{"id": base + i, "parent": parent, "unit": s.unit, "self_us": us(self[i])},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// layerOf is the span name's prefix up to the first dot: its layer.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// probeAudit is an engine.Audit that counts every hook, delimits each
// engine's run loop with a span (BeginRun fires at the end of assembly,
// EndRun when Wait completes), and forwards to the workload's real auditor
// when it has one, timing the forwarded calls as the auditor's busy time.
type probeAudit struct {
	inner engine.Audit // nil where the workload attaches no auditor
	rec   *recorder
	unit  string

	runs     int
	loopSpan int
	lastEnd  time.Duration // recorder offset of the previous EndRun or enclosing call start
	// gap is Σ (BeginRun − lastEnd) per unit: the time between entering a
	// public call (or the previous run's end) and the next run loop's
	// start. NewEngine's own start is invisible from outside, so this
	// bounds assembly from above; where the benchmark calls NewEngine
	// itself, right after enter, it is assembly.
	gap       map[string]time.Duration
	hooks     int64
	busy      time.Duration
	events    map[string]int64
	accepts   int64
	jobs      int64
	reclaims  int64
	epochs    int64
	shuffles  int64
	shuffleDu int64
	nodeLoss  int64
}

func newProbeAudit(rec *recorder) *probeAudit {
	return &probeAudit{rec: rec, events: map[string]int64{}, gap: map[string]time.Duration{}, loopSpan: -1}
}

// enter marks the start of a public call that will build engines, so the
// first engine's out-of-loop gap is measured from here.
func (a *probeAudit) enter(inner engine.Audit, unit string) {
	a.inner, a.unit = inner, unit
	a.lastEnd = time.Since(a.rec.epoch)
}

// timed runs one forwarded hook and books its duration as auditor busy time.
func (a *probeAudit) timed(fn func()) {
	if a.inner == nil {
		return
	}
	a.hooks++
	t0 := time.Now()
	fn()
	a.busy += time.Since(t0)
}

func (a *probeAudit) BeginRun(active []bool) {
	a.runs++
	a.gap[a.unit] += time.Since(a.rec.epoch) - a.lastEnd
	a.timed(func() { a.inner.BeginRun(active) })
	a.loopSpan = a.rec.begin("engine.loop", a.unit)
}

func (a *probeAudit) EndRun() {
	a.rec.end(a.loopSpan)
	a.loopSpan = -1
	a.timed(func() { a.inner.EndRun() })
	a.lastEnd = time.Since(a.rec.epoch)
}

func (a *probeAudit) Event(ev engine.TraceEvent) {
	a.events[ev.Type]++
	a.timed(func() { a.inner.Event(ev) })
}

func (a *probeAudit) SlotLaunched(exec, jobID int) {
	a.timed(func() { a.inner.SlotLaunched(exec, jobID) })
}

func (a *probeAudit) SlotReleased(exec, jobID int) {
	a.timed(func() { a.inner.SlotReleased(exec, jobID) })
}

func (a *probeAudit) SlotsReclaimed(exec, inflight int) {
	a.reclaims++
	a.timed(func() { a.inner.SlotsReclaimed(exec, inflight) })
}

func (a *probeAudit) ExecutorEpoch(exec, epoch int) {
	a.epochs++
	a.timed(func() { a.inner.ExecutorEpoch(exec, epoch) })
}

func (a *probeAudit) ShuffleRegistered(jobID, stage, task, node int, outcome engine.ShuffleOutcome) {
	a.shuffles++
	if outcome == engine.ShuffleDuplicate {
		a.shuffleDu++
	}
	a.timed(func() { a.inner.ShuffleRegistered(jobID, stage, task, node, outcome) })
}

func (a *probeAudit) ShuffleNodeLost(node int) {
	a.nodeLoss++
	a.timed(func() { a.inner.ShuffleNodeLost(node) })
}

func (a *probeAudit) TaskAccepted(jobID int, m job.TaskMetrics) {
	a.accepts++
	a.timed(func() { a.inner.TaskAccepted(jobID, m) })
}

func (a *probeAudit) JobFinished(rep *engine.JobReport) {
	a.jobs++
	a.timed(func() { a.inner.JobFinished(rep) })
}

// Flag forwards scenario expect failures to the real auditor, which folds
// them into its violation stream (scenario compilation looks this method up
// by interface on whatever auditor the setup carries).
func (a *probeAudit) Flag(rule, detail string) {
	if f, ok := a.inner.(interface{ Flag(rule, detail string) }); ok {
		f.Flag(rule, detail)
	}
}

// traceEvents is the number of task-level trace events the engines emitted.
func (a *probeAudit) traceEvents() int64 {
	var n int64
	for _, c := range a.events {
		n += c
	}
	return n
}

// sink is the discard writer every trace and telemetry export goes to. It
// keeps a byte count, a write count and a CRC so two passes can be compared
// byte for byte without holding the output; with timed set it also books
// the time spent inside Write.
type sink struct {
	crc    hash.Hash32
	bytes  int64
	writes int64
	timed  bool
	busy   time.Duration
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newSink(timed bool) *sink { return &sink{crc: crc32.New(castagnoli), timed: timed} }

func (s *sink) Write(p []byte) (int, error) {
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	s.crc.Write(p)
	s.bytes += int64(len(p))
	s.writes++
	if s.timed {
		s.busy += time.Since(t0)
	}
	return len(p), nil
}

// probePolicy counts the calls the engine makes into a sizing policy and the
// controllers it hands out.
type probePolicy struct {
	job.Policy
	calls *int64
}

func (p probePolicy) NewController(exec job.ExecutorInfo) job.Controller {
	*p.calls++
	return probeController{p.Policy.NewController(exec), p.calls}
}

func (p probePolicy) InitialThreads(exec job.ExecutorInfo, meta job.StageMeta) int {
	*p.calls++
	return p.Policy.InitialThreads(exec, meta)
}

type probeController struct {
	job.Controller
	calls *int64
}

func (c probeController) StageStart(meta job.StageMeta) int {
	*c.calls++
	return c.Controller.StageStart(meta)
}

func (c probeController) TaskDone(tm job.TaskMetrics) (int, bool) {
	*c.calls++
	return c.Controller.TaskDone(tm)
}
