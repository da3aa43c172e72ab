package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"
)

// oracleSink is traceSink as it was first defined: a header line and
// encoding/json over traceEventV2. These types are what fixed the wire
// format, so the hand-written traceSink.emit is held to their bytes. A
// legacy oracle writes what pre-v2 sinks wrote instead — encoding/json over
// TraceEvent, no header, no spans — the log the reader must still decode.
type oracleSink struct {
	enc    *json.Encoder
	err    error
	legacy bool
	wrote  bool
	spans  *spanTracker
}

func newOracleSink(w io.Writer, legacy bool) *oracleSink {
	return &oracleSink{enc: json.NewEncoder(w), legacy: legacy, spans: newSpanTracker()}
}

func (t *oracleSink) emit(ev TraceEvent) {
	if t.err != nil {
		return
	}
	if t.legacy {
		t.err = t.enc.Encode(ev)
		return
	}
	if !t.wrote {
		t.wrote = true
		if t.err = t.enc.Encode(newTraceHeader()); t.err != nil {
			return
		}
	}
	t.spans.annotate(&ev)
	t.err = t.enc.Encode(encodeV2(ev))
}

func encodeV2(ev TraceEvent) traceEventV2 {
	opt := func(v, sentinel int) *int {
		if v == sentinel {
			return nil
		}
		return &v
	}
	return traceEventV2{
		At:      ev.At,
		Type:    ev.Type,
		Job:     opt(ev.Job, -1),
		Stage:   opt(ev.Stage, -1),
		Task:    opt(ev.Task, -1),
		Exec:    opt(ev.Exec, -1),
		Threads: opt(ev.Threads, 0),
		Span:    ev.Span,
		Parent:  ev.Parent,
		Detail:  ev.Detail,
	}
}

// TraceOracle is an auditor that forwards to Audit and, fed by the audit
// plane's mirror of the event stream, writes to W the log the reflection
// encoder would have written (the pre-v2 one when Legacy is set): one
// oracle sink per engine, as each engine builds its own traceSink. Exported
// for the scenario sweep in the external test package.
type TraceOracle struct {
	Audit
	W      io.Writer
	Legacy bool
	sink   *oracleSink
}

func (o *TraceOracle) BeginRun(active []bool) {
	o.sink = newOracleSink(o.W, o.Legacy)
	o.Audit.BeginRun(active)
}

func (o *TraceOracle) Event(ev TraceEvent) {
	o.sink.emit(ev)
	o.Audit.Event(ev)
}

// TestTraceSinkMatchesOracle drives every branch of
// the encoder — sentinels and real zeros, span and parent links, floats on
// both sides of encoding/json's notation switch, details that need
// escaping — and a time with no JSON form, which must fail the same way.
func TestTraceSinkMatchesOracle(t *testing.T) {
	events := []TraceEvent{
		{At: 0, Type: TraceJobStart, Job: 0, Stage: -1, Task: -1, Exec: -1, Detail: "terasort"},
		{At: 1e-7, Type: TraceStageStart, Job: 0, Stage: 0, Task: -1, Exec: -1, Detail: "map (8 tasks)"},
		{At: 0.000001, Type: TraceTaskLaunch, Job: 0, Stage: 0, Task: 0, Exec: 0},
		{At: 1.25e-9, Type: TraceTaskLaunch, Job: 0, Stage: 0, Task: 3, Exec: 2, Detail: `node "2" <local> & \rack`},
		{At: 2.25, Type: TraceResize, Job: 0, Stage: 0, Task: -1, Exec: 1, Threads: 12, Detail: "ζ rising\t\u2028"},
		{At: 3, Type: TraceExecCrash, Job: -1, Stage: -1, Task: -1, Exec: 1, Detail: "crash\xff"},
		{At: 1 << 53, Type: TraceChecksum, Job: 0, Stage: 0, Task: 3, Exec: 2, Detail: "replica on node 1 failed checksum"},
		{At: 1e21, Type: TraceTaskEnd, Job: 0, Stage: 0, Task: 3, Exec: 2},
		{At: 9.99e20, Type: TraceTaskFail, Job: 0, Stage: 0, Task: 0, Exec: 0, Detail: "injected"},
		{At: 1e22, Type: "odd<type>", Job: 7, Stage: 7, Task: 7, Exec: 7, Threads: -1},
		{At: 1e22, Type: TraceStageEnd, Job: 0, Stage: 0, Task: -1, Exec: -1},
		{At: 1e300, Type: TraceJobEnd, Job: 0, Stage: -1, Task: -1, Exec: -1, Detail: "terasort"},
		{At: math.NaN(), Type: TraceJobStart, Job: 1, Stage: -1, Task: -1, Exec: -1},
		{At: 5, Type: TraceJobStart, Job: 2, Stage: -1, Task: -1, Exec: -1, Detail: "after the error: dropped"},
	}
	var got, want bytes.Buffer
	sink, oracle := newTraceSink(&got), newOracleSink(&want, false)
	for _, ev := range events {
		sink.emit(ev)
		oracle.emit(ev)
	}
	if got.String() != want.String() {
		t.Errorf("bytes:\n%s\nencoding/json writes:\n%s", got.String(), want.String())
	}
	if sink.err == nil || oracle.err == nil || sink.err.Error() != oracle.err.Error() {
		t.Errorf("error = %v, oracle's = %v", sink.err, oracle.err)
	}
}

// TestTraceTimestampReuseMatchesOracle: the sink renders a line's timestamp
// once per run of equal times, keyed by the float's bits. Runs of one
// instant, changes, a time below 1e-6 (exponent form), a return to an earlier
// time and a negative zero after a zero (equal, but encoded "-0") must all
// come out as encoding/json writes them.
func TestTraceTimestampReuseMatchesOracle(t *testing.T) {
	times := []float64{0, 0, 0, math.Copysign(0, -1), 1.5, 1.5, 1.5, 2.25, 5e-7, 5e-7, 1.5, 1.5, 2.25, 1e21, 1e21, 0}
	var got, want bytes.Buffer
	sink, oracle := newTraceSink(&got), newOracleSink(&want, false)
	for i, at := range times {
		ev := TraceEvent{At: at, Type: TraceTaskLaunch, Job: 0, Stage: 1, Task: i, Exec: i % 3}
		sink.emit(ev)
		oracle.emit(ev)
	}
	if got.String() != want.String() {
		t.Errorf("bytes:\n%s\nencoding/json writes:\n%s", got.String(), want.String())
	}
	if err := sink.flushErr(); err != nil || oracle.err != nil {
		t.Fatalf("%v, oracle %v", err, oracle.err)
	}
}

// countingWriter counts Write calls: the engine promises its writer one
// Write per event (plus one for the header).
type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }

// TestTraceEmitAllocFreeOneWrite pins the cost of an event whose detail
// needs no escaping: no allocation and exactly one Write.
func TestTraceEmitAllocFreeOneWrite(t *testing.T) {
	w := &countingWriter{}
	sink := newTraceSink(w)
	launch := TraceEvent{At: 1.5, Type: TraceTaskLaunch, Job: 0, Stage: 1, Task: 3, Exec: 2, Detail: "node-local"}
	end := launch
	end.Type, end.At = TraceTaskEnd, 2.75
	resize := TraceEvent{At: 3, Type: TraceResize, Job: 0, Stage: 1, Task: -1, Exec: 2, Threads: 16, Detail: "rollback to 16"}
	sink.emit(TraceEvent{Type: TraceJobStart, Job: 0, Stage: -1, Task: -1, Exec: -1})
	sink.emit(TraceEvent{Type: TraceStageStart, Job: 0, Stage: 1, Task: -1, Exec: -1})
	sink.emit(launch) // sizes the buffer and the span maps
	sink.emit(end)
	before := w.writes
	const runs = 200
	if n := testing.AllocsPerRun(runs, func() {
		sink.emit(launch)
		sink.emit(end)
		sink.emit(resize)
	}); n != 0 {
		t.Errorf("emit allocates %v times per three events, want 0", n)
	}
	if got := w.writes - before; got != 3*(runs+1) { // AllocsPerRun warms up with one extra run
		t.Errorf("%d Writes for %d events", got, 3*(runs+1))
	}
	if err := sink.flushErr(); err != nil {
		t.Fatal(err)
	}
}
