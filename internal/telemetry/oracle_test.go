package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"
	"time"
)

// WriteJSONLOracle is WriteJSONL as it was first defined — encoding/json
// over one jsonSample per sample point. It is the reference the columnar
// writer must match byte for byte (exported for the scenario sweep in the
// external test package).
func WriteJSONLOracle(r *Registry, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range r.Samples() {
		if err := enc.Encode(jsonSample{
			T:      sp.At.Seconds(),
			Metric: sp.Metric,
			Labels: sp.Labels,
			Value:  sp.Value,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// HookCount reports how many OnSample hooks r holds (for the scenario sweep
// in the external test package).
func HookCount(r *Registry) int { return len(r.hooks) }

// jsonlAgainstOracle dumps r both ways, requires equal bytes (or equal
// errors) and returns the dump.
func jsonlAgainstOracle(t *testing.T, r *Registry) string {
	t.Helper()
	var got, want bytes.Buffer
	err, wantErr := r.WriteJSONL(&got), WriteJSONLOracle(r, &want)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("WriteJSONL error = %v, oracle's = %v", err, wantErr)
		}
		return ""
	}
	if err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteJSONL:\n%s\nencoding/json writes:\n%s", got.String(), want.String())
	}
	return got.String()
}

// TestLayoutGrowsAfterFirstTick covers instruments that appear mid-run, as
// per-job gauges and the lazily created sae_events_total{type} do: earlier
// ticks keep the rows they had, later ticks gain the new series in sorted
// position.
func TestLayoutGrowsAfterFirstTick(t *testing.T) {
	r := NewRegistry()
	r.Gauge("sae_m", "m").Set(1)
	r.Sample(0)
	r.Counter("sae_events_total", "e", "type", "task_launch").Inc()
	r.GaugeFunc("sae_pending", "p", func() float64 { return 7 }, "job", "3")
	r.Sample(time.Second)
	r.Counter("sae_events_total", "e", "type", "resize").Add(2)
	r.Sample(2 * time.Second)
	want := `{"t":0,"metric":"sae_m","value":1}
{"t":1,"metric":"sae_events_total","labels":"type=\"task_launch\"","value":1}
{"t":1,"metric":"sae_m","value":1}
{"t":1,"metric":"sae_pending","labels":"job=\"3\"","value":7}
{"t":2,"metric":"sae_events_total","labels":"type=\"resize\"","value":2}
{"t":2,"metric":"sae_events_total","labels":"type=\"task_launch\"","value":1}
{"t":2,"metric":"sae_m","value":1}
{"t":2,"metric":"sae_pending","labels":"job=\"3\"","value":7}
`
	if got := jsonlAgainstOracle(t, r); got != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", got, want)
	}
	if n := len(r.Samples()); n != 8 {
		t.Fatalf("Samples() holds %d points, want 8", n)
	}
}

func TestHistogramCountSumPair(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sae_h", "h", []float64{1}, "q", "a")
	r.Gauge("sae_h_a", "sorts between the family and its _count").Set(9)
	h.Observe(0.5)
	h.Observe(2)
	r.Sample(time.Second)
	want := `{"t":1,"metric":"sae_h_count","labels":"q=\"a\"","value":2}
{"t":1,"metric":"sae_h_sum","labels":"q=\"a\"","value":2.5}
{"t":1,"metric":"sae_h_a","value":9}
`
	if got := jsonlAgainstOracle(t, r); got != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", got, want)
	}
	if s, ok := r.Series("sae_h_sum", "q", "a"); !ok || s.Points[0].Value != 2.5 {
		t.Fatalf("Series(sae_h_sum) = %+v, %v", s.Points, ok)
	}
}

// TestMergeLastWinsAcrossLayoutChange re-samples an instant after the
// instrument set grew: the second tick replaces the first, new rows included.
func TestMergeLastWinsAcrossLayoutChange(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("sae_b", "b")
	g.Set(1)
	r.Sample(0)
	r.Sample(time.Second)
	r.Gauge("sae_a", "a").Set(5)
	g.Set(2)
	r.Sample(time.Second)
	want := `{"t":0,"metric":"sae_b","value":1}
{"t":1,"metric":"sae_a","value":5}
{"t":1,"metric":"sae_b","value":2}
`
	if got := jsonlAgainstOracle(t, r); got != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", got, want)
	}
	if len(r.ticks) != 2 || len(r.values) != 3 {
		t.Fatalf("store holds %d ticks / %d values, want 2 / 3", len(r.ticks), len(r.values))
	}
}

func TestSeriesAcrossLayoutChange(t *testing.T) {
	r := NewRegistry()
	m := r.Gauge("sae_m", "m")
	for i := 0; i < 4; i++ {
		if i == 2 {
			r.Gauge("sae_a", "registered late, shifts sae_m's column").Set(-1)
		}
		m.Set(float64(i))
		r.Sample(time.Duration(i) * time.Second)
	}
	s, ok := r.Series("sae_m")
	if !ok || len(s.Points) != 4 {
		t.Fatalf("Series(sae_m) = %+v, want 4 points", s.Points)
	}
	for i, p := range s.Points {
		if p.At != time.Duration(i)*time.Second || p.Value != float64(i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	late, ok := r.Series("sae_a")
	if !ok || len(late.Points) != 2 || late.Points[0].At != 2*time.Second {
		t.Fatalf("Series(sae_a) = %+v, want the two ticks after it registered", late.Points)
	}
}

// TestJSONLEscapingAndFloatsMatchOracle drives metric names, label values
// and sample values through everything encoding/json treats specially.
func TestJSONLEscapingAndFloatsMatchOracle(t *testing.T) {
	r := NewRegistry()
	for i, v := range []string{`q"uote`, `back\slash`, "<&>", "ctl\x01", "sep\u2028", "bad\xff", "ζ"} {
		r.Gauge("sae_esc", "e", "v", v).Set(float64(i))
	}
	r.Gauge("sae_<odd>&name", "n").Set(1)
	vals := []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-9, 1e21, 9.99e20, 5e-324, 1 << 53, -1.5e300}
	for i, v := range vals {
		r.Gauge("sae_val", "v", "i", string(rune('a'+i))).Set(v)
	}
	r.Sample(1234567891 * time.Nanosecond)
	r.Sample(time.Hour)
	jsonlAgainstOracle(t, r)

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r.Gauge("sae_bad", "b").Set(bad)
		r.Sample(2 * time.Hour)
		jsonlAgainstOracle(t, r)
	}
}

// TestSampleSteadyStateAllocFree pins the tick cost: with the layout built
// and room in the store, a tick allocates nothing.
func TestSampleSteadyStateAllocFree(t *testing.T) {
	r := NewRegistry()
	r.Counter("sae_c", "c", "exec", "0").Inc()
	r.GaugeFunc("sae_g", "g", func() float64 { return 2 })
	r.Histogram("sae_h", "h", []float64{1}).Observe(3)
	r.OnSample("noop", func(time.Duration) {})
	r.values = make([]float64, 0, 4096)
	r.ticks = make([]tick, 0, 1024)
	var at time.Duration
	r.Sample(at)
	if n := testing.AllocsPerRun(500, func() {
		at += time.Second
		r.Sample(at)
	}); n != 0 {
		t.Fatalf("steady-state Sample allocates %v times per tick, want 0", n)
	}
}
