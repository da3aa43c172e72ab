package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sae_tasks_total", "tasks")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %v, want 3", c.Value())
	}
	g := r.Gauge("sae_pool_size", "pool", "exec", "0")
	g.Set(8)
	g.Add(-2)
	if g.Value() != 6 {
		t.Fatalf("gauge = %v, want 6", g.Value())
	}
	h := r.Histogram("sae_delay_seconds", "delay", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	if h.Count() != 3 || h.Sum() != 105.5 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("sae_x", "x").Inc()
	r.Counter("sae_x", "x").Inc()
	if v, ok := r.Value("sae_x"); !ok || v != 2 {
		t.Fatalf("value = %v,%v, want 2,true", v, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different type should panic")
		}
	}()
	r.Gauge("sae_x", "x")
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	r.Counter("sae_y", "y", "b", "2", "a", "1").Inc()
	r.Counter("sae_y", "y", "a", "1", "b", "2").Inc()
	if v, _ := r.Value("sae_y", "b", "2", "a", "1"); v != 2 {
		t.Fatalf("label order should not split instruments: got %v", v)
	}
}

func TestSampleMergeLastWins(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sae_n", "n")
	c.Inc()
	r.Sample(time.Second)
	c.Inc()
	r.Sample(2 * time.Second)
	c.Inc()
	r.Sample(2 * time.Second) // duplicate tick replaces the previous one
	s, ok := r.Series("sae_n")
	if !ok || len(s.Points) != 2 {
		t.Fatalf("series = %+v, want 2 points", s.Points)
	}
	if s.Points[1].At != 2*time.Second || s.Points[1].Value != 3 {
		t.Fatalf("last point = %+v, want (2s, 3)", s.Points[1])
	}
}

func TestOnSampleHook(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("sae_window", "w")
	var ticks []time.Duration
	r.OnSample("window", func(time.Duration) { t.Error("a replaced hook still ran") })
	r.OnSample("window", func(at time.Duration) {
		ticks = append(ticks, at)
		g.Set(at.Seconds())
	})
	r.Sample(time.Second)
	r.Sample(3 * time.Second)
	if len(ticks) != 2 || ticks[1] != 3*time.Second {
		t.Fatalf("hook ticks = %v", ticks)
	}
	if v, _ := r.Value("sae_window"); v != 3 {
		t.Fatalf("hook should run before sampling: got %v", v)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sae_b_total", "b help", "exec", "1").Add(4)
	r.Gauge("sae_a", "a help").Set(1.5)
	h := r.Histogram("sae_h_seconds", "h help", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sae_a a help
# TYPE sae_a gauge
sae_a 1.5
# HELP sae_b_total b help
# TYPE sae_b_total counter
sae_b_total{exec="1"} 4
# HELP sae_h_seconds h help
# TYPE sae_h_seconds histogram
sae_h_seconds_bucket{le="1"} 1
sae_h_seconds_bucket{le="10"} 2
sae_h_seconds_bucket{le="+Inf"} 3
sae_h_seconds_sum 105.5
sae_h_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Fatalf("prometheus dump:\n%s\nwant:\n%s", got, want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sae_n", "n", "exec", "0")
	c.Inc()
	r.Sample(1500 * time.Millisecond)
	c.Add(2)
	r.Sample(3 * time.Second)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t":1.5,"metric":"sae_n","labels":"exec=\"0\"","value":1}
{"t":3,"metric":"sae_n","labels":"exec=\"0\"","value":3}
`
	if buf.String() != want {
		t.Fatalf("jsonl dump:\n%s\nwant:\n%s", buf.String(), want)
	}
	pts, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0] != r.Samples()[0] || pts[1] != r.Samples()[1] {
		t.Fatalf("round trip = %+v, want %+v", pts, r.Samples())
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRegistry()
	r.Gauge("sae_g", "g", "state", "active").Set(2)
	r.Sample(time.Second)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "t_seconds,metric,labels,value\n" +
		"1,sae_g,\"state=\"\"active\"\"\",2\n"
	if buf.String() != want {
		t.Fatalf("csv dump:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestSeriesMissing(t *testing.T) {
	r := NewRegistry()
	r.Counter("sae_n", "n").Inc()
	if _, ok := r.Series("sae_n"); ok {
		t.Fatal("unsampled instrument should have no series")
	}
	if _, ok := r.Value("sae_missing"); ok {
		t.Fatal("unknown metric should not resolve")
	}
}

func TestHistogramSampling(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sae_h", "h", []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	r.Sample(time.Second)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"metric":"sae_h_count","value":2`) &&
		!strings.Contains(out, `{"t":1,"metric":"sae_h_count","value":2}`) {
		t.Fatalf("histogram count sample missing:\n%s", out)
	}
	if !strings.Contains(out, `"metric":"sae_h_sum"`) {
		t.Fatalf("histogram sum sample missing:\n%s", out)
	}
}
