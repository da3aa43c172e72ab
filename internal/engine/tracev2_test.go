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
	header, events, err := ReadTraceWithHeader(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if header != nil {
		t.Fatalf("legacy log reported header %+v, want nil", header)
	}
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
	// ReadTrace is the historical entry point and must agree.
	evs2, err := ReadTrace(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs2) != len(events) || evs2[0] != events[0] {
		t.Errorf("ReadTrace disagrees with ReadTraceWithHeader")
	}
}

// TestV1ByteFormatLocked pins the exact v1 wire format: new fields on
// TraceEvent must never change the bytes a v1 sink writes.
func TestV1ByteFormatLocked(t *testing.T) {
	var buf bytes.Buffer
	sink := newTraceSink(&buf, 0)
	sink.emit(TraceEvent{At: 0, Type: TraceJobStart, Job: 0, Stage: -1, Task: -1, Exec: -1, Detail: "terasort"})
	sink.emit(TraceEvent{At: 1.5, Type: TraceTaskLaunch, Job: 0, Stage: 0, Task: 3, Exec: 2})
	if err := sink.flushErr(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":0,"type":"job_start","job":0,"stage":-1,"task":-1,"exec":-1,"threads":0,"detail":"terasort"}
{"t":1.5,"type":"task_launch","job":0,"stage":0,"task":3,"exec":2,"threads":0}
`
	if got := buf.String(); got != want {
		t.Errorf("v1 bytes changed:\ngot  %q\nwant %q", got, want)
	}
}

// TestV2SentinelOmission checks the v2 encoding drops sentinel-valued
// fields instead of writing -1/0 placeholders.
func TestV2SentinelOmission(t *testing.T) {
	var buf bytes.Buffer
	sink := newTraceSink(&buf, 2)
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

// TestV2RoundTrip runs the same deterministic job in v1 and v2 format and
// checks (a) the v2 header, (b) the events match the v1 run exactly once
// span annotations are stripped, and (c) span parentage links task → stage
// → job.
func TestV2RoundTrip(t *testing.T) {
	runTrace := func(format int) []byte {
		spec, in := pipelineJob("spanjob", 8)
		opts := testOptions(4, core.Default{})
		opts.Inputs = []Input{in}
		var buf bytes.Buffer
		opts.Trace = &buf
		opts.TraceFormat = format
		if _, err := Run(opts, spec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v1 := runTrace(0)
	v2 := runTrace(2)

	header, events, err := ReadTraceWithHeader(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if header == nil || header.Version != TraceVersion || header.Format != "flat+spans" {
		t.Fatalf("v2 header = %+v", header)
	}
	v1events, err := ReadTrace(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(v1events) {
		t.Fatalf("v2 decoded %d events, v1 %d", len(events), len(v1events))
	}
	jobSpan := map[int]int64{}
	stageSpan := map[[2]int]int64{}
	for i, ev := range events {
		flat := ev
		flat.Span, flat.Parent = 0, 0
		if flat != v1events[i] {
			t.Fatalf("event %d differs from v1 run:\nv2 %+v\nv1 %+v", i, flat, v1events[i])
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
	// Determinism: a repeat v2 run is byte-identical.
	if again := runTrace(2); !bytes.Equal(v2, again) {
		t.Error("repeated v2 run produced different bytes")
	}
}
