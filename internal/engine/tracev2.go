package engine

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceVersion is the version stamped into v2 trace headers.
const TraceVersion = 2

// TraceHeaderType is the Type of the header line a v2 trace starts with.
const TraceHeaderType = "trace_header"

// TraceHeader is the first line of a v2 trace log. Pre-v2 logs have no
// header; readers treat a missing header as the legacy flat format.
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

// traceEventV2 is the v2 wire form of TraceEvent as ReadTraceWithHeader
// decodes it (traceSink.emit writes the same bytes by hand). Unlike v1 — where
// Job/Stage/Task/Exec are always written (-1 when not applicable) while
// Threads is always written as 0 — v2 is omitempty-consistent: a field
// that does not apply is absent. Pointers make "0" and "absent"
// distinguishable both ways; struct field order fixes the encoding.
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

// event converts back to the in-memory form, restoring the v1 sentinels so
// analysis code sees one representation regardless of trace version.
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

// ReadTraceWithHeader decodes a trace log and returns its header (nil for
// legacy pre-v2 logs). v1 lines decode exactly as they always have; v2
// lines have their omitted fields restored to the in-memory sentinels
// (Job/Stage/Task/Exec -1, Threads 0).
func ReadTraceWithHeader(r io.Reader) (*TraceHeader, []TraceEvent, error) {
	dec := json.NewDecoder(r)
	var hdr *TraceHeader
	var out []TraceEvent
	first := true
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return hdr, out, fmt.Errorf("engine: decode trace: %w", err)
		}
		if first {
			first = false
			var h TraceHeader
			if err := json.Unmarshal(raw, &h); err == nil && h.Type == TraceHeaderType {
				hdr = &h
				continue
			}
		}
		if hdr != nil {
			var v2 traceEventV2
			if err := json.Unmarshal(raw, &v2); err != nil {
				return hdr, out, fmt.Errorf("engine: decode trace: %w", err)
			}
			out = append(out, v2.event())
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return hdr, out, fmt.Errorf("engine: decode trace: %w", err)
		}
		out = append(out, ev)
	}
	return hdr, out, nil
}
