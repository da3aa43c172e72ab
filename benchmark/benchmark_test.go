package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The tests run the real harness at the short size: same code paths, a
// fraction of the load. They assert only what is deterministic (outputs,
// counts, span structure, the declared metric set), never a timing.

func shortConfig() config {
	return config{seed: defaultSeed, size: shortSize, short: true, tracedPasses: 2}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkMetricSet(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	want := map[string]bool{}
	for _, d := range defs {
		want[d.name] = true
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q is outside the allowed alphabet or too long", d.name)
		}
		if m, ok := res.Metrics[d.name]; !ok {
			t.Errorf("metric %s is declared but was not measured", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s printed with unit %q, declared %q", d.name, m.Unit, d.unit)
		}
	}
	for name := range res.Metrics {
		if !want[name] {
			t.Errorf("metric %s was measured but is not declared", name)
		}
	}
	var buf bytes.Buffer
	if err := res.writeDriverLine(&buf, defs); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("driver line is not JSON: %v\n%s", err, buf.String())
	}
	keys := make([]string, 0, len(line))
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("driver line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var printed map[string]struct {
		Value *float64 `json:"value"`
		Unit  *string  `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &printed); err != nil {
		t.Fatal(err)
	}
	if len(printed) != len(defs) {
		t.Errorf("driver line prints %d metrics, %d are declared", len(printed), len(defs))
	}
}

// TestTracedRunIsNeutral is the probe-neutrality check on every workload:
// the passes under the probes reproduce the untraced pass's outputs byte
// for byte (the checker compares each with pass 1), the deterministic
// counts agree on two traced passes in a row (runTraced fails the run
// otherwise), every declared per-layer metric is printed, and the spans
// nest.
func TestTracedRunIsNeutral(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // independent engines; nothing here asserts a timing
			res, recs, err := runTraced(w, shortConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%d of %d units failed: %s", res.Failed, res.Attempted, strings.Join(res.Failures, "\n"))
			}
			checkMetricSet(t, res, perLayer)
			if res.Metrics["engine.runs"].Value < 1 || res.Metrics["engine.trace_events"].Value < 1 {
				t.Errorf("the audit probe saw no engine run: runs %v, trace events %v",
					res.Metrics["engine.runs"].Value, res.Metrics["engine.trace_events"].Value)
			}
			checkSpans(t, recs)
		})
	}
}

// checkSpans asserts the span structure: every span closed, children inside
// their parents, self time never negative, and the Chrome export valid JSON
// with one event per span.
func checkSpans(t *testing.T, recs []*recorder) {
	t.Helper()
	total := 0
	for _, r := range recs {
		total += len(r.spans)
		if len(r.open) != 0 {
			t.Errorf("%d span(s) left open", len(r.open))
		}
		self := r.selfTimes()
		for i, s := range r.spans {
			if s.end < s.start {
				t.Errorf("span %d %s ends before it starts", i, s.name)
			}
			if self[i] < 0 {
				t.Errorf("span %d %s has negative self time %v", i, s.name, self[i])
			}
			if s.parent >= 0 {
				p := r.spans[s.parent]
				if s.parent >= i || s.start < p.start || s.end > p.end {
					t.Errorf("span %d %s [%v,%v] is not inside its parent %d %s [%v,%v]",
						i, s.name, s.start, s.end, s.parent, p.name, p.start, p.end)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no spans recorded")
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace-out is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != total {
		t.Errorf("-trace-out holds %d events for %d spans", len(doc.TraceEvents), total)
	}
}

func TestRecorderClosesAbandonedChildren(t *testing.T) {
	r := &recorder{}
	outer := r.begin("outer", "u")
	inner := r.begin("engine.loop", "u") // an engine run that never reaches EndRun
	r.end(outer)
	r.end(inner) // already closed with its parent: must not disturb anything
	if len(r.open) != 0 || r.spans[inner].end != r.spans[outer].end {
		t.Fatalf("abandoned child not closed with its parent: %+v", r.spans)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("off", "u"))
}

// TestUntracedRunAndExpected covers the benchmark proper on the cheapest
// workload: the printed set is the declared end-to-end set, a frozen table
// that matches passes, and a corrupted digest fails units, raises
// fail_share and turns the exit status non-zero.
func TestUntracedRunAndExpected(t *testing.T) {
	w, _ := workloadByName("wide_cluster")
	cfg := shortConfig()
	res, chk, err := runUntraced(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.err() != nil || res.Timed < w.minTimed {
		t.Fatalf("clean run: err %v, T %d, failures %v", res.err(), res.Timed, res.Failures)
	}
	checkMetricSet(t, res, endToEnd)
	for _, d := range endToEnd {
		// cpu_s is exempt: a 10 ms short pass can read 0 where the kernel
		// accounts CPU time by ticks.
		if d.name != "cpu_s" && res.Metrics[d.name].Value <= 0 {
			t.Errorf("end-to-end metric %s reads %v; it must never be 0", d.name, res.Metrics[d.name].Value)
		}
	}

	frozen := chk.fingerprints()
	cfg.expected = map[string]map[string]string{w.name: frozen}
	if res, _, err = runUntraced(w, cfg); err != nil || res.err() != nil {
		t.Fatalf("run against its own frozen outputs: %v / %v: %v", err, res.err(), res.Failures)
	}

	corrupted := map[string]string{}
	for id, fp := range frozen {
		corrupted[id] = fp
	}
	corrupted["r3"] += "0"
	cfg.expected = map[string]map[string]string{w.name: corrupted}
	if res, _, err = runUntraced(w, cfg); err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.FailShare <= 0 || res.Correct || !errors.Is(res.err(), errUnitsFailed) {
		t.Fatalf("corrupted expected digest went unnoticed: failed %d, fail_share %v, err %v", res.Failed, res.FailShare, res.err())
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the program's tables")

// manifest renders BENCHMARK.json from the tables the program prints from.
func manifest() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricEntry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	entries := func(defs []metricDef, bounded bool) []metricEntry {
		out := make([]metricEntry, len(defs))
		for i, d := range defs {
			out[i] = metricEntry{Name: d.name, Unit: d.unit, Better: "lower"}
			if d.higher {
				out[i].Better = "higher"
			}
			if bounded {
				bound := d.bound
				out[i].Bound = &bound
			}
		}
		return out
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricEntry   `json:"end_to_end"`
		PerLayer   []metricEntry   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   entries(endToEnd, true),
		PerLayer:   entries(perLayer, false),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	return append(data, '\n'), err
}

// TestManifestMatchesTables keeps BENCHMARK.json, which the driver reads,
// byte-equal to the tables the program prints from, and the tables inside
// the manifest's limits. `go test ./benchmark -run Manifest -update`
// rewrites the file after a table changes.
func TestManifestMatchesTables(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; run `go test ./benchmark -run Manifest -update`")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes; the limit is 64 KiB", len(want))
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics; the manifest allows 1 to 128", n)
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if seen[d.name] {
				t.Errorf("metric name %s is used twice", d.name)
			}
			seen[d.name] = true
			if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.unit) {
				t.Errorf("metric %s: unit %q is outside the manifest's alphabet", d.name, d.unit)
			}
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

// TestCompareVerdicts drives -compare over synthetic result files: equal
// sets are ok, a median worse by more than the bound regresses, a spread
// wider than the bound is unresolved (and does not fail), and any rise in
// fail_share regresses.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64, jitter float64, failed int) string {
		f := &resultFile{Schema: resultSchema}
		for _, w := range workloads {
			for run := 0; run < 10; run++ {
				r := &runResult{Workload: w.name, Seed: int64(run), Timed: 3, Attempted: 10, Failed: failed, Metrics: map[string]metricValue{}}
				for _, d := range endToEnd {
					s := 1.0
					if v, ok := scale[d.name]; ok && w.name == "wide_cluster" {
						s = v
					}
					r.Metrics[d.name] = metricValue{Value: s * (100 + jitter*float64(run-5)), Unit: d.unit}
				}
				f.Runs = append(f.Runs, r)
			}
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// A slowdown of twice the bound must regress; a jitter whose
	// interquartile spread (5 steps of it) exceeds the widest bound must not
	// resolve.
	slow := 1 + 2*endToEnd[0].bound
	noise := 0.0
	for _, d := range endToEnd {
		noise = max(noise, 100*d.bound/5*1.6)
	}
	base := write("base.json", nil, 0.1, 0)
	for _, tc := range []struct {
		name    string
		other   string
		wantErr bool
		want    string
		absent  string
	}{
		{"same", write("same.json", nil, 0.1, 0), false, "ok", "regressed"},
		{"slower", write("slower.json", map[string]float64{"wall_s": slow}, 0.1, 0), true, "regressed", "unresolved"},
		{"faster", write("faster.json", map[string]float64{"wall_s": 0.5}, 0.1, 0), false, "ok", "regressed"},
		{"noisy", write("noisy.json", nil, noise, 0), false, "unresolved", "regressed"},
		{"failing", write("failing.json", nil, 0.1, 1), true, "regressed", "unresolved"},
	} {
		var out bytes.Buffer
		err := compareFiles(base, tc.other, &out)
		if (err != nil) != tc.wantErr || (err != nil && !errors.Is(err, errRegressed)) {
			t.Errorf("%s: err = %v, want error %v\n%s", tc.name, err, tc.wantErr, out.String())
		}
		if !strings.Contains(out.String(), tc.want) || strings.Contains(out.String(), tc.absent) {
			t.Errorf("%s: want a %q verdict and no %q:\n%s", tc.name, tc.want, tc.absent, out.String())
		}
	}
}
