package engine

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"sae/internal/core"
	"sae/internal/telemetry"
)

// telemetryScenario runs a fixed autoscaling job with a fresh registry and
// returns the Prometheus and JSONL exports plus the report runtime.
func telemetryScenario(t *testing.T) (prom, jsonl []byte, runtime time.Duration) {
	t.Helper()
	spec, in := pipelineJob("teljob", 48)
	opts := testOptions(4, core.Default{})
	opts.Inputs = []Input{in}
	opts.Autoscale = &AutoscaleConfig{
		Policy:       &scriptPolicy{targets: []int{2, 4}},
		InitialNodes: 2,
	}
	reg := telemetry.NewRegistry()
	opts.Metrics = reg
	opts.MetricsInterval = time.Second
	rep, err := Run(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	var pb, jb bytes.Buffer
	if err := reg.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), jb.Bytes(), rep.Runtime
}

// TestTelemetryExportsDeterministic is the PR's acceptance gate in
// miniature: the same seed and scenario must export byte-identical
// Prometheus and JSONL dumps on every run.
func TestTelemetryExportsDeterministic(t *testing.T) {
	prom1, jsonl1, rt1 := telemetryScenario(t)
	prom2, jsonl2, rt2 := telemetryScenario(t)
	if rt1 != rt2 {
		t.Fatalf("runtimes differ: %s vs %s", rt1, rt2)
	}
	if !bytes.Equal(prom1, prom2) {
		t.Error("Prometheus exports differ between identical runs")
	}
	if !bytes.Equal(jsonl1, jsonl2) {
		t.Error("JSONL exports differ between identical runs")
	}
	if len(prom1) == 0 || len(jsonl1) == 0 {
		t.Fatal("exports are empty")
	}
}

// TestTelemetryParallelRunsIdentical runs the scenario on concurrent
// goroutines — each with its own kernel and registry, as Fig. 12's runs side
// by side do — and checks every copy exports the same bytes as a sequential
// run.
func TestTelemetryParallelRunsIdentical(t *testing.T) {
	wantProm, wantJSONL, _ := telemetryScenario(t)
	const n = 4
	proms := make([][]byte, n)
	jsonls := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proms[i], jsonls[i], _ = telemetryScenario(t)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if !bytes.Equal(proms[i], wantProm) {
			t.Errorf("goroutine %d Prometheus export differs from sequential run", i)
		}
		if !bytes.Equal(jsonls[i], wantJSONL) {
			t.Errorf("goroutine %d JSONL export differs from sequential run", i)
		}
	}
}

// TestMetricsDoNotPerturbTrace attaches a registry and checks the v1 event
// log stays byte-identical to a run without telemetry: observation must not
// change the simulation.
func TestMetricsDoNotPerturbTrace(t *testing.T) {
	runTrace := func(withMetrics bool) []byte {
		spec, in := pipelineJob("quietjob", 16)
		opts := testOptions(4, core.Default{})
		opts.Inputs = []Input{in}
		var buf bytes.Buffer
		opts.Trace = &buf
		if withMetrics {
			opts.Metrics = telemetry.NewRegistry()
			opts.MetricsInterval = time.Second
		}
		if _, err := Run(opts, spec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bare := runTrace(false)
	observed := runTrace(true)
	if !bytes.Equal(bare, observed) {
		t.Error("attaching a metrics registry changed the event log")
	}
}

// TestTelemetryCoreSeries spot-checks that the registry's series carry the
// values the run report agrees with.
func TestTelemetryCoreSeries(t *testing.T) {
	spec, in := pipelineJob("seriesjob", 16)
	opts := testOptions(4, core.Default{})
	opts.Inputs = []Input{in}
	reg := telemetry.NewRegistry()
	opts.Metrics = reg
	opts.MetricsInterval = time.Second
	if _, err := Run(opts, spec); err != nil {
		t.Fatal(err)
	}
	tasks := 16 + 32 // map blocks + 2*blocks reduce tasks
	if v, ok := reg.Value("sae_tasks_done_total"); !ok || v != float64(tasks) {
		t.Errorf("sae_tasks_done_total = %v (ok=%v), want %d", v, ok, tasks)
	}
	if v, ok := reg.Value("sae_jobs_completed"); !ok || v != 1 {
		t.Errorf("sae_jobs_completed = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := reg.Value("sae_jobs_running"); !ok || v != 0 {
		t.Errorf("sae_jobs_running = %v (ok=%v), want 0 after Wait", v, ok)
	}
	if v, ok := reg.Value("sae_events_total", "type", "task_launch"); !ok || v < float64(tasks) {
		t.Errorf("sae_events_total{type=task_launch} = %v (ok=%v), want >= %d", v, ok, tasks)
	}
	// The final sample lands at the end of the run, so the queue-delay
	// histogram must have seen every task that ever waited.
	series, ok := reg.Series("sae_scheduler_queue_delay_seconds_count")
	if !ok || len(series) == 0 {
		t.Fatalf("queue delay histogram missing (ok=%v)", ok)
	}
	last := series[len(series)-1]
	if last.Value <= 0 {
		t.Errorf("queue delay histogram empty at end of run: %+v", last)
	}
}
