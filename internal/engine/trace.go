package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"sae/internal/jsonenc"
)

// TraceEvent is one line of the engine's event log — the analogue of
// Spark's event-log JSON, usable for timeline visualization and debugging.
// Times are virtual seconds since job start.
type TraceEvent struct {
	At   float64 `json:"t"`
	Type string  `json:"type"`
	// Job is the job ID (submission index; -1 for engine-wide events
	// such as executor crashes).
	Job int `json:"job"`
	// Stage is the stage ID (-1 when not applicable).
	Stage int `json:"stage"`
	// Task is the task index (-1 when not applicable).
	Task int `json:"task"`
	// Exec is the executor ID (-1 when not applicable).
	Exec int `json:"exec"`
	// Threads is the pool size for resize events (0 otherwise).
	Threads int `json:"threads"`
	// Span and Parent are the event's span ID and its parent's (0 in a
	// pre-v2 log, which had no spans). Starts and ends of the same
	// job/stage/task attempt share one span ID; task spans parent to their
	// stage span, stage spans to their job span.
	Span   int64  `json:"span,omitempty"`
	Parent int64  `json:"parent,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Trace event types.
const (
	TraceJobStart   = "job_start"
	TraceJobEnd     = "job_end"
	TraceStageStart = "stage_start"
	TraceStageEnd   = "stage_end"
	TraceTaskLaunch = "task_launch"
	TraceTaskEnd    = "task_end"
	TraceTaskFail   = "task_fail"
	TraceResize     = "resize"
	TraceSpeculate  = "speculate"
	// Fault-path events (chaos schedules and recovery). TraceExecCrash
	// marks the physical process death; TraceExecLost marks the driver
	// *declaring* the executor lost (heartbeat timeout), which under the
	// failure detector happens strictly later.
	TraceExecCrash     = "exec_crash"
	TraceExecLost      = "exec_lost"
	TraceExecRestart   = "exec_restart"
	TraceStageResubmit = "stage_resubmit"
	TraceBlacklist     = "blacklist"
	// TraceBlacklistLift clears a live executor's blacklisting once no
	// executor is left to take the work (execManager.liftStranded).
	TraceBlacklistLift = "blacklist_lift"
	// Gray-failure events: suspicion raised/cleared by the heartbeat
	// detector, a false-positive incarnation fenced, a node throttled by
	// the chaos plan, a partition window opening/healing, and a DFS block
	// checksum mismatch triggering replica failover.
	TraceExecSuspect = "exec_suspect"
	TraceExecFence   = "exec_fence"
	TraceExecSlow    = "exec_slow"
	TracePartition   = "partition"
	TraceChecksum    = "checksum"
	// Elasticity events: the autoscaler provisioning a node (it joins
	// provisionDelay later via exec-join), starting a graceful drain, and
	// decommissioning the quiesced node. A drain that ends in exec_crash /
	// exec_lost instead of decommission is a node dying mid-drain.
	TraceScaleUp      = "scale_up"
	TraceDrain        = "drain"
	TraceDecommission = "decommission"
)

// Failure-detector details the audit plane keys on: an exec_suspect event
// with DetailSuspectCleared clears a suspicion (any other detail raises
// one); an exec_lost event with DetailHeartbeatTimeout is a declared loss.
const (
	DetailSuspectCleared   = "cleared by heartbeat"
	DetailHeartbeatTimeout = "heartbeat timeout"
)

// traceSink serializes events to the configured writer: a header line
// (TraceHeader) before the first event, then one line per event with span
// IDs threaded through it and every field at its sentinel omitted.
//
// The format was defined by encoding/json over TraceHeader and
// traceEventV2; emit appends those same bytes into one reused buffer and
// hands the writer one Write per event.
type traceSink struct {
	w        io.Writer
	buf      []byte
	headLen  int    // buf's `{"t":…` prefix, rendered only when the bits of
	headBits uint64 // the timestamp move: most lines repeat the one before's
	err      error
	wrote    bool
	spans    *spanTracker
}

func newTraceSink(w io.Writer) *traceSink {
	if w == nil {
		return nil
	}
	return &traceSink{w: w, spans: newSpanTracker()}
}

// emit writes one event; encoding errors are remembered and surfaced once
// at job end rather than failing tasks mid-flight.
func (t *traceSink) emit(ev TraceEvent) {
	if t == nil || t.err != nil {
		return
	}
	if !t.wrote {
		t.wrote = true
		hdr, _ := json.Marshal(newTraceHeader()) // plain struct, cannot fail
		if _, t.err = t.w.Write(append(hdr, '\n')); t.err != nil {
			return
		}
	}
	t.spans.annotate(&ev)
	b := t.buf[:t.headLen]
	if bits := math.Float64bits(ev.At); t.headLen == 0 || bits != t.headBits {
		if b, t.err = jsonenc.AppendFloat(append(b[:0], `{"t":`...), ev.At); t.err != nil {
			return
		}
		t.headLen, t.headBits = len(b), bits
	}
	b = jsonenc.AppendString(append(b, `,"type":`...), ev.Type)
	field := func(key string, v, sentinel int) {
		if v != sentinel {
			b = strconv.AppendInt(append(b, key...), int64(v), 10)
		}
	}
	field(`,"job":`, ev.Job, -1)
	field(`,"stage":`, ev.Stage, -1)
	field(`,"task":`, ev.Task, -1)
	field(`,"exec":`, ev.Exec, -1)
	field(`,"threads":`, ev.Threads, 0)
	if ev.Span != 0 {
		b = strconv.AppendInt(append(b, `,"span":`...), ev.Span, 10)
	}
	if ev.Parent != 0 {
		b = strconv.AppendInt(append(b, `,"parent":`...), ev.Parent, 10)
	}
	if ev.Detail != "" {
		b = jsonenc.AppendString(append(b, `,"detail":`...), ev.Detail)
	}
	t.buf = append(b, '}', '\n')
	_, t.err = t.w.Write(t.buf)
}

func (t *traceSink) flushErr() error {
	if t == nil || t.err == nil {
		return nil
	}
	return fmt.Errorf("engine: trace log: %w", t.err)
}

// trace emits an event if tracing is enabled, mirrors it into the
// telemetry event counters if a metrics registry is attached, and into the
// audit plane if an auditor is attached. The auditor sees exactly the
// bytes-equivalent event the sink would emit (At populated), in emission
// order, whether or not a sink exists.
func (e *Engine) trace(ev TraceEvent) {
	e.tel.onEvent(ev.Type)
	if e.aud == nil && e.sink == nil {
		return
	}
	ev.At = e.k.Now().Seconds()
	if e.aud != nil {
		e.aud.Event(ev)
	}
	if e.sink != nil {
		e.sink.emit(ev)
	}
}

// TraceHeaderType is the Type of the header line each run's log starts
// with, and TraceVersion the version that line stamps.
const (
	TraceHeaderType = "trace_header"
	TraceVersion    = 2
)

// TraceHeader is the first line every engine writes to its trace, so it
// starts each run of a log several runs wrote. Pre-v2 logs have none.
type TraceHeader struct {
	Type    string `json:"type"`
	Version int    `json:"version"`
	// Format documents the line encoding: flat events with span IDs
	// threaded through job/stage/task lifecycles.
	Format string `json:"format,omitempty"`
}

func newTraceHeader() TraceHeader {
	return TraceHeader{Type: TraceHeaderType, Version: TraceVersion, Format: "flat+spans"}
}

// traceEventV2 is the wire form of TraceEvent (traceSink.emit writes the
// same bytes by hand). It is omitempty-consistent: a field that does not
// apply is absent, where pre-v2 writers wrote Job/Stage/Task/Exec as -1 and
// Threads as 0. Pointers make "0" and "absent" distinguishable both ways, so
// one decoder reads both; struct field order fixes the encoding.
type traceEventV2 struct {
	At      float64 `json:"t"`
	Type    string  `json:"type"`
	Job     *int    `json:"job,omitempty"`
	Stage   *int    `json:"stage,omitempty"`
	Task    *int    `json:"task,omitempty"`
	Exec    *int    `json:"exec,omitempty"`
	Threads *int    `json:"threads,omitempty"`
	Span    int64   `json:"span,omitempty"`
	Parent  int64   `json:"parent,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// event converts back to the in-memory form, restoring the sentinels of
// absent fields.
func (v traceEventV2) event() TraceEvent {
	val := func(p *int, sentinel int) int {
		if p == nil {
			return sentinel
		}
		return *p
	}
	return TraceEvent{
		At:      v.At,
		Type:    v.Type,
		Job:     val(v.Job, -1),
		Stage:   val(v.Stage, -1),
		Task:    val(v.Task, -1),
		Exec:    val(v.Exec, -1),
		Threads: val(v.Threads, 0),
		Span:    v.Span,
		Parent:  v.Parent,
		Detail:  v.Detail,
	}
}

// taskSpanKey identifies one task attempt: at most one attempt of a task
// runs on a given executor at a time, and speculative copies run elsewhere.
type taskSpanKey struct {
	job, stage, task, exec int
}

// spanTracker assigns deterministic span IDs to job→stage→task-attempt
// lifecycles as events stream through the sink. IDs are allocated in event
// order, so same-seed runs produce identical span graphs.
type spanTracker struct {
	next   int64
	jobs   map[int]int64
	stages map[setKey]int64
	tasks  map[taskSpanKey]int64
}

func newSpanTracker() *spanTracker {
	return &spanTracker{
		jobs:   map[int]int64{},
		stages: map[setKey]int64{},
		tasks:  map[taskSpanKey]int64{},
	}
}

func (s *spanTracker) open() int64 {
	s.next++
	return s.next
}

// annotate threads span/parent IDs through ev. Start events open a span,
// matching end events close it, and every other event is parented to the
// most specific live span it references (task attempt, else stage, else
// job) so timeline tools can fold auxiliary events into the span tree.
func (s *spanTracker) annotate(ev *TraceEvent) {
	switch ev.Type {
	case TraceJobStart:
		ev.Span = s.open()
		s.jobs[ev.Job] = ev.Span
	case TraceJobEnd:
		ev.Span = s.jobs[ev.Job]
		delete(s.jobs, ev.Job)
	case TraceStageStart:
		ev.Span = s.open()
		ev.Parent = s.jobs[ev.Job]
		s.stages[setKey{job: ev.Job, stage: ev.Stage}] = ev.Span
	case TraceStageEnd:
		key := setKey{job: ev.Job, stage: ev.Stage}
		ev.Span = s.stages[key]
		ev.Parent = s.jobs[ev.Job]
		delete(s.stages, key)
	case TraceTaskLaunch:
		ev.Span = s.open()
		ev.Parent = s.stages[setKey{job: ev.Job, stage: ev.Stage}]
		s.tasks[taskSpanKey{ev.Job, ev.Stage, ev.Task, ev.Exec}] = ev.Span
	case TraceTaskEnd, TraceTaskFail:
		key := taskSpanKey{ev.Job, ev.Stage, ev.Task, ev.Exec}
		ev.Span = s.tasks[key]
		ev.Parent = s.stages[setKey{job: ev.Job, stage: ev.Stage}]
		delete(s.tasks, key)
	default:
		if ev.Job < 0 {
			return
		}
		if ev.Stage >= 0 {
			if ev.Task >= 0 && ev.Exec >= 0 {
				if sp, ok := s.tasks[taskSpanKey{ev.Job, ev.Stage, ev.Task, ev.Exec}]; ok {
					ev.Parent = sp
					return
				}
			}
			if sp, ok := s.stages[setKey{job: ev.Job, stage: ev.Stage}]; ok {
				ev.Parent = sp
				return
			}
		}
		ev.Parent = s.jobs[ev.Job]
	}
}

// traceLine is one line of a trace log as ReadTraceRuns decodes it: an
// event or, when Type is TraceHeaderType, the header that starts a run.
type traceLine struct {
	traceEventV2
	Version int    `json:"version"`
	Format  string `json:"format"`
}

// TraceRun is one run's part of a trace log: the header that starts it (nil
// for a headerless pre-v2 log) and the events that follow it.
type TraceRun struct {
	Header *TraceHeader
	Events []TraceEvent
}

// ReadTraceRuns decodes a trace log and splits it at each header line, so a
// log several runs appended to one writer (a matrix scenario) comes back one
// run at a time; lines before the first header — all of a pre-v2 log — are
// one run without a header. Every line decodes as a traceEventV2 with absent
// fields restored to their sentinels; pre-v2 writers wrote every integer,
// so their lines decode as they always did.
func ReadTraceRuns(r io.Reader) ([]TraceRun, error) {
	dec := json.NewDecoder(r)
	var runs []TraceRun
	for dec.More() {
		var line traceLine
		if err := dec.Decode(&line); err != nil {
			return runs, fmt.Errorf("engine: decode trace: %w", err)
		}
		if line.Type == TraceHeaderType {
			hdr := TraceHeader{Type: line.Type, Version: line.Version, Format: line.Format}
			runs = append(runs, TraceRun{Header: &hdr})
			continue
		}
		if len(runs) == 0 {
			runs = append(runs, TraceRun{})
		}
		run := &runs[len(runs)-1]
		run.Events = append(run.Events, line.event())
	}
	return runs, nil
}

// ReadTraceWithHeader decodes a trace log and returns its first header (nil
// for a pre-v2 log) and the events of all its runs in order.
func ReadTraceWithHeader(r io.Reader) (*TraceHeader, []TraceEvent, error) {
	runs, err := ReadTraceRuns(r)
	if len(runs) == 0 {
		return nil, nil, err
	}
	var evs []TraceEvent
	for _, run := range runs {
		evs = append(evs, run.Events...)
	}
	return runs[0].Header, evs, err
}

// ReadTrace decodes a trace log and returns the events of all its runs in
// order (see ReadTraceRuns to keep the runs apart).
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	_, evs, err := ReadTraceWithHeader(r)
	return evs, err
}
