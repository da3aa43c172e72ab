package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"
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

// ticksOf lists the ticks r holds.
func ticksOf(r *Registry) []tick {
	var out []tick
	for tk := range r.allTicks {
		out = append(out, tk)
	}
	return out
}

// storedValues counts the values the ticks of r hold.
func storedValues(r *Registry) int {
	n := 0
	for tk := range r.allTicks {
		n += len(tk.vals)
	}
	return n
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
	if s, ok := r.Series("sae_h_sum", "q", "a"); !ok || s[0].Value != 2.5 {
		t.Fatalf("Series(sae_h_sum) = %+v, %v", s, ok)
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
	if n := len(ticksOf(r)); n != 2 || storedValues(r) != 3 || len(r.last.vals) != 3 {
		t.Fatalf("store holds %d ticks / %d values in %d floats of chunk, want 2 / 3 / 3", n, storedValues(r), len(r.last.vals))
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
	if !ok || len(s) != 4 {
		t.Fatalf("Series(sae_m) = %+v, want 4 points", s)
	}
	for i, p := range s {
		if p.At != time.Duration(i)*time.Second || p.Value != float64(i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	late, ok := r.Series("sae_a")
	if !ok || len(late) != 2 || late[0].At != 2*time.Second {
		t.Fatalf("Series(sae_a) = %+v, want the two ticks after it registered", late)
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
	var at time.Duration
	r.Sample(at) // builds the layout and the first chunk, which the 201 ticks below do not fill
	if n := testing.AllocsPerRun(200, func() {
		at += time.Second
		r.Sample(at)
	}); n != 0 {
		t.Fatalf("steady-state Sample allocates %v times per tick, want 0", n)
	}
}

// wideRegistry returns a registry of width gauges sae_w{i="…"}, gauge i reading
// *base + i.
func wideRegistry(width int, base *float64) *Registry {
	r := NewRegistry()
	for i := 0; i < width; i++ {
		r.GaugeFunc("sae_w", "w", func() float64 { return *base + float64(i) }, "i", strconv.Itoa(i))
	}
	return r
}

// TestStoreAllocatesItsFinalSize pins what the chunks are for: sampling a fixed
// layout allocates the bytes the store ends up holding — eight per value plus
// the tick records — not the several times that a flat slice grown by append
// would, most of it copied once more at every doubling.
func TestStoreAllocatesItsFinalSize(t *testing.T) {
	const width, ticks = 100, 8100 // 100 chunks of 81 ticks, 92 floats short of chunkFloats each
	var base float64
	r := wideRegistry(width, &base)
	r.Sample(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= ticks; i++ {
		r.Sample(time.Duration(i) * time.Second)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	final := float64(8*width*ticks + int(unsafe.Sizeof(tick{}))*ticks)
	t.Logf("allocated %.0f bytes for a store of %.0f (x%.3f)", got, final, got/final)
	if got > 1.1*final {
		t.Fatalf("%d ticks of %d series allocated %.0f bytes, the store holds %.0f (x%.2f, want <= 1.1)", ticks, width, got, final, got/final)
	}
	if n := storedValues(r); n != width*(ticks+1) {
		t.Fatalf("store holds %d values, want %d", n, width*(ticks+1))
	}
}

// TestChunkBoundaries drives the store across several chunks with a layout
// that does not divide the chunk size, so ticks are cut off at chunk ends: no
// tick may span two chunks or reach into its successor's values, a same-instant
// re-sample of the tick that filled a chunk must land where the first did, and
// the dump must be what encoding/json writes for the points.
func TestChunkBoundaries(t *testing.T) {
	const width = 3000 // two ticks per chunk
	var base float64
	r := wideRegistry(width, &base)
	for i := 0; i < 7; i++ {
		base = float64(1000 * i)
		r.Sample(time.Duration(i) * time.Second)
		if i%2 == 1 {
			// The tick just taken was the last its chunk has room for.
			if c := r.last; len(c.ticks) != cap(c.ticks) || len(c.vals) != cap(c.vals) {
				t.Fatalf("tick %d: chunk holds %d of %d ticks, %d of %d values, the test wants a full one", i, len(c.ticks), cap(c.ticks), len(c.vals), cap(c.vals))
			}
			first := &r.last.ticks[1].vals[0]
			base += 0.5
			r.Sample(time.Duration(i) * time.Second)
			if last := r.last.ticks[1]; &last.vals[0] != first || last.vals[0] != base {
				t.Fatalf("tick %d re-sampled: values moved, or kept the first sample (%v, want %v)", i, last.vals[0], base)
			}
		}
	}
	ticks := ticksOf(r)
	if len(ticks) != 7 || storedValues(r) != 7*width {
		t.Fatalf("store holds %d ticks / %d values, want 7 / %d", len(ticks), storedValues(r), 7*width)
	}
	for i, tk := range ticks {
		if len(tk.vals) != width || cap(tk.vals) != width {
			t.Fatalf("tick %d: len %d cap %d, want both %d", i, len(tk.vals), cap(tk.vals), width)
		}
		want := float64(1000 * i)
		if i%2 == 1 {
			want += 0.5
		}
		// Series sort by label text: i="0", i="1", i="10", …, i="999".
		if tk.vals[0] != want || tk.vals[1] != want+1 || tk.vals[width-1] != want+999 {
			t.Fatalf("tick %d holds %v, %v … %v, want %v, %v … %v", i, tk.vals[0], tk.vals[1], tk.vals[width-1], want, want+1, want+999)
		}
	}
	jsonlAgainstOracle(t, r) // three chunks and a started fourth
}

// TestLayoutChangeMidChunk grows the instrument set while a chunk is half
// full, then past the chunk size: earlier ticks keep their rows, a tick wider
// than what is left of the chunk starts a new one, and a layout wider than a
// chunk gets a chunk of its own width.
func TestLayoutChangeMidChunk(t *testing.T) {
	var base float64
	r := wideRegistry(10, &base)
	r.Sample(0)
	r.Sample(time.Second)
	chunk := r.last
	r.Gauge("sae_late", "l").Set(-1)
	r.Sample(2 * time.Second)
	if r.last != chunk || len(chunk.vals) != 31 || len(chunk.ticks) != 3 {
		t.Fatalf("a wider tick that fits left the chunk at %d ticks, %d floats (a new chunk: %v), want 3, 31 in place", len(chunk.ticks), len(chunk.vals), r.last != chunk)
	}
	for i := 0; i < chunkFloats; i++ {
		r.Gauge("sae_x", "x", "i", strconv.Itoa(i)).Set(float64(i))
	}
	r.Sample(3 * time.Second)
	r.Sample(3 * time.Second)
	if c, want := r.last, chunkFloats+11; c == chunk || cap(c.vals) != want || len(c.vals) != want || cap(c.ticks) != 1 {
		t.Fatalf("a layout of %d series sits in a chunk of %d values (cap %d), room for %d ticks", want, len(c.vals), cap(c.vals), cap(c.ticks))
	}
	r.Sample(4 * time.Second)
	if got, want := storedValues(r), 10+10+11+2*(chunkFloats+11); got != want {
		t.Fatalf("store holds %d values, want %d", got, want)
	}
	if s, ok := r.Series("sae_late"); !ok || len(s) != 3 || s[0].At != 2*time.Second {
		t.Fatalf("Series(sae_late) = %+v, want the three ticks after it registered", s)
	}
	jsonlAgainstOracle(t, r)
}
