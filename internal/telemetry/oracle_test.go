package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
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

// ticksOf lists the ticks r holds, each with a row and mask of its own.
func ticksOf(r *Registry) []tick {
	var out []tick
	for tk := range r.allTicks {
		tk.vals, tk.changed = slices.Clone(tk.vals), slices.Clone(tk.changed)
		out = append(out, tk)
	}
	return out
}

// storedValues counts the values the ticks of r stand for.
func storedValues(r *Registry) int {
	n := 0
	for tk := range r.allTicks {
		n += len(tk.vals)
	}
	return n
}

// tickWords is how many words tk takes in the store: its instant and layout,
// then its full row for a key tick, or its bitmap and moved values.
func tickWords(tk tick) int {
	if tk.changed == nil {
		return 2 + len(tk.vals)
	}
	n := 2 + len(tk.changed)
	for _, m := range tk.changed {
		n += bits.OnesCount64(m)
	}
	return n
}

// chunkTicksOf lays r's ticks over its chunks by their sizes and returns how
// many each chunk holds, failing if a tick would cross a chunk's end or the
// ticks leave a chunk partly unaccounted for.
func chunkTicksOf(t *testing.T, r *Registry) []int {
	t.Helper()
	per := make([]int, len(r.chunks))
	k, used := 0, 0
	for tk := range r.allTicks {
		for k < len(r.chunks) && used == len(r.chunks[k]) {
			k, used = k+1, 0
		}
		if k == len(r.chunks) || used+tickWords(tk) > len(r.chunks[k]) {
			t.Fatalf("the tick at %v (%d words) crosses the end of chunk %d", tk.at, tickWords(tk), k)
		}
		used += tickWords(tk)
		per[k]++
	}
	if k < len(r.chunks) && used != len(r.chunks[k]) || k+1 < len(r.chunks) {
		t.Fatalf("the ticks end at word %d of chunk %d of %d, short of the store's end", used, k, len(r.chunks))
	}
	return per
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
	// Two key ticks, the re-sampled one in the place of the one it replaced.
	if n := len(ticksOf(r)); n != 2 || storedValues(r) != 3 || len(r.chunks) != 1 || len(r.chunks[0]) != 2+1+2+2 {
		t.Fatalf("store holds %d ticks / %d values in %d chunks, want 2 / 3 in 7 words of one", n, storedValues(r), len(r.chunks))
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

// storeAllocs samples r at 1 s … ticks s, after step(i) for each, and returns
// the bytes that allocated and the words the store gained.
func storeAllocs(r *Registry, ticks int, step func(i int)) (allocated, words float64) {
	held := func() (n int) {
		for _, c := range r.chunks {
			n += len(c)
		}
		return n
	}
	before := held()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i <= ticks; i++ {
		step(i)
		r.Sample(time.Duration(i) * time.Second)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc), float64(held() - before)
}

// TestStoreAllocatesItsFinalSize pins what the chunks are for: sampling a
// fixed layout allocates the bytes the store ends up holding — sixteen per
// tick, a bitmap word per 64 series and eight per moved value — not the
// several times that a flat slice grown by append would, most of it copied
// once more at every doubling. Series i moves every (i mod 5 + 1)th tick.
func TestStoreAllocatesItsFinalSize(t *testing.T) {
	const width, ticks = 100, 8100
	n := 0
	r := NewRegistry()
	for i := 0; i < width; i++ {
		r.GaugeFunc("sae_w", "w", func() float64 { return float64(n / (i%5 + 1)) }, "i", strconv.Itoa(i))
	}
	r.Sample(0)
	want := 0
	for i := 1; i <= ticks; i++ {
		want += 2 + 2
		for c := 0; c < width; c++ {
			if i%(c%5+1) == 0 {
				want++
			}
		}
	}
	got, words := storeAllocs(r, ticks, func(i int) { n = i })
	t.Logf("allocated %.0f bytes for a store of %.0f (x%.3f)", got, 8*words, got/(8*words))
	if words != float64(want) {
		t.Fatalf("%d ticks took %.0f words of store, want %d: the key row, then per tick its header, bitmap and moved values", ticks, words, want)
	}
	if got > 1.1*8*words {
		t.Fatalf("%d ticks of %d series allocated %.0f bytes, the store holds %.0f (x%.2f, want <= 1.1)", ticks, width, got, 8*words, got/(8*words))
	}
	if n := storedValues(r); n != width*(ticks+1) {
		t.Fatalf("store holds %d values, want %d", n, width*(ticks+1))
	}
}

// TestStoreWorstCaseSize pins the cost of the bitmaps: with every series
// moving at every tick, the store allocates at most 5 % over eight bytes per
// value plus 40 per tick, what a full row per tick cost.
func TestStoreWorstCaseSize(t *testing.T) {
	const width, ticks = 100, 8100
	var base float64
	r := wideRegistry(width, &base)
	r.Sample(0)
	got, _ := storeAllocs(r, ticks, func(i int) { base = float64(i) })
	full := float64((8*width + 40) * ticks)
	t.Logf("allocated %.0f bytes, a full row per tick %.0f (x%.3f)", got, full, got/full)
	if got > 1.05*full {
		t.Fatalf("%d ticks of %d moving series allocated %.0f bytes, want <= 1.05 x %.0f", ticks, width, got, full)
	}
}

// TestChunkBoundaries drives the store across several chunks with ticks that
// do not divide the chunk size, so chunks end short: no tick may span two
// chunks, a same-instant re-sample of the tick that filled a chunk must land
// where the first did, and the dump must be what encoding/json writes for the
// points.
func TestChunkBoundaries(t *testing.T) {
	const width = 3000 // two ticks per chunk: 3002 words for a key tick, 3049 for a delta that moves every series
	var base float64
	r := wideRegistry(width, &base)
	for i := 0; i < 7; i++ {
		base = float64(1000 * i)
		r.Sample(time.Duration(i) * time.Second)
		if i%2 == 1 {
			// The tick just taken was the last its chunk has room for.
			c := r.chunks[len(r.chunks)-1]
			if size := len(c) - r.lastOff; cap(c)-len(c) >= size {
				t.Fatalf("tick %d: its chunk has %d of %d words free, room for another %d-word tick; the test wants a full one", i, cap(c)-len(c), cap(c), size)
			}
			k, off := len(r.chunks), r.lastOff
			base += 0.5
			r.Sample(time.Duration(i) * time.Second)
			if len(r.chunks) != k || r.lastOff != off || r.last.vals[0] != base {
				t.Fatalf("tick %d re-sampled: moved to chunk %d word %d from %d, %d, or kept the first sample (%v, want %v)", i, len(r.chunks), r.lastOff, k, off, r.last.vals[0], base)
			}
		}
	}
	ticks := ticksOf(r)
	if len(ticks) != 7 || storedValues(r) != 7*width {
		t.Fatalf("store holds %d ticks / %d values, want 7 / %d", len(ticks), storedValues(r), 7*width)
	}
	if per := chunkTicksOf(t, r); !slices.Equal(per, []int{2, 2, 2, 1}) {
		t.Fatalf("chunks hold %v ticks, want [2 2 2 1]", per)
	}
	for i, tk := range ticks {
		if len(tk.vals) != width || (i > 0) != (tk.changed != nil) {
			t.Fatalf("tick %d: %d values, key tick %v; want %d, only the first a key tick", i, len(tk.vals), tk.changed == nil, width)
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
// full, then past the chunk size: earlier ticks keep their rows, a key tick
// that fits goes on in the chunk, and a layout wider than a chunk gets a chunk
// of its own width.
func TestLayoutChangeMidChunk(t *testing.T) {
	var base float64
	r := wideRegistry(10, &base)
	r.Sample(0)           // a key tick: 2 + 10 words
	r.Sample(time.Second) // nothing moved: 2 + 1
	r.Gauge("sae_late", "l").Set(-1)
	r.Sample(2 * time.Second) // a key tick again: 2 + 11
	if len(r.chunks) != 1 || len(r.chunks[0]) != 12+3+13 {
		t.Fatalf("a key tick that fits left the store at %d chunks, %d words in the first, want 1, 28", len(r.chunks), len(r.chunks[0]))
	}
	for i := 0; i < chunkWords; i++ {
		r.Gauge("sae_x", "x", "i", strconv.Itoa(i)).Set(float64(i))
	}
	r.Sample(3 * time.Second)
	r.Sample(3 * time.Second)
	if c, want := r.chunks[len(r.chunks)-1], 2+chunkWords+11; len(r.chunks) != 2 || cap(c) != want || len(c) != want {
		t.Fatalf("a layout of %d series sits in chunk %d of %d words (cap %d), want chunk 2 of %d", chunkWords+11, len(r.chunks), len(c), cap(c), want)
	}
	r.Sample(4 * time.Second)
	if got, want := storedValues(r), 10+10+11+2*(chunkWords+11); got != want {
		t.Fatalf("store holds %d values, want %d", got, want)
	}
	if per := chunkTicksOf(t, r); !slices.Equal(per, []int{3, 1, 1}) {
		t.Fatalf("chunks hold %v ticks, want [3 1 1]", per)
	}
	if s, ok := r.Series("sae_late"); !ok || len(s) != 3 || s[0].At != 2*time.Second {
		t.Fatalf("Series(sae_late) = %+v, want the three ticks after it registered", s)
	}
	jsonlAgainstOracle(t, r)
}
