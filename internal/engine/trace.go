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
	// Span and Parent are the event's span ID and its parent's — populated
	// only in v2 traces (see TraceFormat), 0 otherwise. Starts and ends of
	// the same job/stage/task attempt share one span ID; task spans parent
	// to their stage span, stage spans to their job span.
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

// traceSink serializes events to the configured writer. The v1 format
// (TraceFormat <= 1) is the legacy flat encoding, kept byte-identical so
// existing readers and golden traces keep working; v2 prefixes a versioned
// header, encodes sentinels consistently (absent fields are omitted rather
// than written as -1/0) and threads span IDs through the events.
//
// Both formats were defined by encoding/json over TraceEvent and
// traceEventV2; emit appends those same bytes into one reused buffer and
// hands the writer one Write per event.
type traceSink struct {
	w        io.Writer
	buf      []byte
	headLen  int    // buf's `{"t":…` prefix, rendered only when the bits of
	headBits uint64 // the timestamp move: most lines repeat the one before's
	err      error
	v2       bool
	wrote    bool
	spans    *spanTracker
}

func newTraceSink(w io.Writer, format int) *traceSink {
	if w == nil {
		return nil
	}
	t := &traceSink{w: w}
	if format >= 2 {
		t.v2 = true
		t.spans = newSpanTracker()
	}
	return t
}

// emit writes one event; encoding errors are remembered and surfaced once
// at job end rather than failing tasks mid-flight.
func (t *traceSink) emit(ev TraceEvent) {
	if t == nil || t.err != nil {
		return
	}
	if t.v2 {
		if !t.wrote {
			t.wrote = true
			hdr, _ := json.Marshal(newTraceHeader()) // plain struct, cannot fail
			if _, t.err = t.w.Write(append(hdr, '\n')); t.err != nil {
				return
			}
		}
		t.spans.annotate(&ev)
	}
	b := t.buf[:t.headLen]
	if bits := math.Float64bits(ev.At); t.headLen == 0 || bits != t.headBits {
		if b, t.err = jsonenc.AppendFloat(append(b[:0], `{"t":`...), ev.At); t.err != nil {
			return
		}
		t.headLen, t.headBits = len(b), bits
	}
	b = jsonenc.AppendString(append(b, `,"type":`...), ev.Type)
	// v1 always writes the five integers; v2 omits one at its sentinel.
	field := func(key string, v, sentinel int) {
		if !t.v2 || v != sentinel {
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

// ReadTrace decodes a trace log produced via Options.Trace, accepting both
// the legacy flat v1 format and v2 logs with a header (the header line is
// skipped; see ReadTraceWithHeader to inspect it).
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	_, evs, err := ReadTraceWithHeader(r)
	return evs, err
}
