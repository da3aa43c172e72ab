package engine

import (
	"bytes"
	"strings"
	"testing"

	"sae/internal/core"
)

// TestReadTraceLegacyCompat locks the reader's pre-v2 behavior: a headerless
// log written before the versioned header existed must decode exactly as it
// always did — sentinels preserved, no header reported.
func TestReadTraceLegacyCompat(t *testing.T) {
	legacy := `{"t":0,"type":"job_start","job":0,"stage":-1,"task":-1,"exec":-1,"threads":0,"detail":"terasort"}
{"t":0,"type":"stage_start","job":0,"stage":0,"task":-1,"exec":-1,"threads":0,"detail":"sample (18 tasks)"}
{"t":1.5,"type":"task_launch","job":0,"stage":0,"task":3,"exec":2,"threads":0}
{"t":2.25,"type":"resize","job":0,"stage":0,"task":-1,"exec":1,"threads":12,"detail":"zeta rising"}
`
	runs, err := ReadTraceRuns(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("decoded %d runs, want 1", len(runs))
	}
	if runs[0].Header != nil {
		t.Fatalf("legacy log reported header %+v, want nil", runs[0].Header)
	}
	events := runs[0].Events
	if len(events) != 4 {
		t.Fatalf("decoded %d events, want 4", len(events))
	}
	js := events[0]
	if js.Stage != -1 || js.Task != -1 || js.Exec != -1 || js.Detail != "terasort" {
		t.Errorf("job_start sentinels mangled: %+v", js)
	}
	rz := events[3]
	if rz.At != 2.25 || rz.Threads != 12 || rz.Exec != 1 {
		t.Errorf("resize event mangled: %+v", rz)
	}
}

// TestV2SentinelOmission checks the encoding drops sentinel-valued fields
// instead of writing -1/0 placeholders.
func TestV2SentinelOmission(t *testing.T) {
	var buf bytes.Buffer
	sink := newTraceSink(&buf)
	sink.emit(TraceEvent{At: 3, Type: TraceExecCrash, Job: -1, Stage: -1, Task: -1, Exec: 1, Detail: "crash"})
	// Legitimate zeros survive: job 0 / stage 0 / task 0 are real IDs.
	sink.emit(TraceEvent{At: 1, Type: TraceTaskEnd, Job: 0, Stage: 0, Task: 0, Exec: 0})
	if err := sink.flushErr(); err != nil {
		t.Fatal(err)
	}
	want := `{"type":"trace_header","version":2,"format":"flat+spans"}
{"t":3,"type":"exec_crash","exec":1,"detail":"crash"}
{"t":1,"type":"task_end","job":0,"stage":0,"task":0,"exec":0}
`
	if got := buf.String(); got != want {
		t.Errorf("v2 bytes:\ngot  %q\nwant %q", got, want)
	}
}

// TestV2RoundTrip runs a deterministic job and checks (a) the header, (b)
// that the log decodes to the events a pre-v2 log of the same run decodes
// to, once span annotations are stripped, and (c) that span parentage links
// task → stage → job.
func TestV2RoundTrip(t *testing.T) {
	runTrace := func() (trace, legacy []byte) {
		spec, in := pipelineJob("spanjob", 8)
		opts := testOptions(4, core.Default{})
		opts.Inputs = []Input{in}
		var buf, old bytes.Buffer
		opts.Trace = &buf
		opts.Audit = &TraceOracle{Audit: newCountingAudit(), W: &old, Legacy: true}
		if _, err := Run(opts, spec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), old.Bytes()
	}
	v2, v1 := runTrace()

	runs, err := ReadTraceRuns(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("decoded %d runs, want 1", len(runs))
	}
	header, events := runs[0].Header, runs[0].Events
	if header == nil || header.Version != TraceVersion || header.Format != "flat+spans" {
		t.Fatalf("header = %+v", header)
	}
	v1events := TraceEvents(t, bytes.NewReader(v1))
	if len(events) != len(v1events) {
		t.Fatalf("decoded %d events, the pre-v2 log %d", len(events), len(v1events))
	}
	jobSpan := map[int]int64{}
	stageSpan := map[[2]int]int64{}
	for i, ev := range events {
		flat := ev
		flat.Span, flat.Parent = 0, 0
		if flat != v1events[i] {
			t.Fatalf("event %d differs from the pre-v2 log's:\nv2 %+v\nv1 %+v", i, flat, v1events[i])
		}
		switch ev.Type {
		case TraceJobStart:
			if ev.Span == 0 || ev.Parent != 0 {
				t.Errorf("job_start span/parent = %d/%d", ev.Span, ev.Parent)
			}
			jobSpan[ev.Job] = ev.Span
		case TraceStageStart:
			if ev.Parent != jobSpan[ev.Job] {
				t.Errorf("stage %d parent %d, want job span %d", ev.Stage, ev.Parent, jobSpan[ev.Job])
			}
			stageSpan[[2]int{ev.Job, ev.Stage}] = ev.Span
		case TraceTaskLaunch:
			if ev.Parent != stageSpan[[2]int{ev.Job, ev.Stage}] {
				t.Errorf("task %d/%d parent %d, want stage span %d",
					ev.Stage, ev.Task, ev.Parent, stageSpan[[2]int{ev.Job, ev.Stage}])
			}
		case TraceJobEnd:
			if ev.Span != jobSpan[ev.Job] {
				t.Errorf("job_end span %d, want %d (start and end share the span)", ev.Span, jobSpan[ev.Job])
			}
		}
	}
	// Determinism: a repeat run is byte-identical.
	if again, _ := runTrace(); !bytes.Equal(v2, again) {
		t.Error("repeated run produced different bytes")
	}
}

// TestReadTraceRunsSplitsAtHeaders: in a log several runs appended to one
// writer, every header starts a run and is never decoded as an event; a
// headerless log is one run without a header.
func TestReadTraceRunsSplitsAtHeaders(t *testing.T) {
	var log bytes.Buffer
	for run := 0; run < 3; run++ {
		sink := newTraceSink(&log)
		sink.emit(TraceEvent{At: 0, Type: TraceJobStart, Job: 0, Stage: -1, Task: -1, Exec: -1, Detail: "terasort"})
		for i := 0; i <= run; i++ {
			sink.emit(TraceEvent{At: 1.5, Type: TraceTaskLaunch, Job: 0, Stage: 0, Task: i, Exec: 0})
		}
		sink.emit(TraceEvent{At: float64(10 + run), Type: TraceJobEnd, Job: 0, Stage: -1, Task: -1, Exec: -1, Detail: "terasort"})
		if err := sink.flushErr(); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := ReadTraceRuns(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("decoded %d runs, want 3", len(runs))
	}
	for i, run := range runs {
		if run.Header == nil || *run.Header != newTraceHeader() {
			t.Errorf("run %d header = %+v", i, run.Header)
		}
		if n := len(run.Events); n != i+3 {
			t.Errorf("run %d has %d events, want %d", i, n, i+3)
		}
		for _, ev := range run.Events {
			if ev.Type == TraceHeaderType {
				t.Errorf("run %d: header decoded as an event", i)
			}
		}
		if last := run.Events[len(run.Events)-1]; last.Type != TraceJobEnd || last.At != float64(10+i) {
			t.Errorf("run %d ends with %+v", i, last)
		}
	}

	legacy := `{"t":0,"type":"job_start","job":0,"stage":-1,"task":-1,"exec":-1,"threads":0}
{"t":4,"type":"job_end","job":0,"stage":-1,"task":-1,"exec":-1,"threads":0}
`
	runs, err = ReadTraceRuns(strings.NewReader(legacy))
	if err != nil || len(runs) != 1 || runs[0].Header != nil || len(runs[0].Events) != 2 {
		t.Errorf("headerless log: %+v, err %v; want one run of 2 events, no header", runs, err)
	}
}
