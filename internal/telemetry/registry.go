// Package telemetry is the simulator's deterministic metrics plane: a
// registry of counters, gauges and histograms sampled on the virtual clock
// and exported as Prometheus text exposition or JSONL/CSV time series.
//
// Determinism is the design constraint everything else follows from. The
// sampler runs on the sim clock (the engine drives Registry.Sample from a
// kernel timer), instruments are iterated in sorted (name, labels) order,
// and floats are formatted with strconv's shortest round-trip form — so two
// same-seed runs export byte-identical dumps, and a parallel sweep exports
// the same bytes as a sequential one. The registry is not safe for
// concurrent use; one engine owns one registry, exactly like its kernel.
//
// Samples are stored by column and by change: a layout lists the series in
// export order and is rebuilt only when an instrument is created, and each
// tick names the layout it was taken under. A tick under a new layout is a
// key tick and holds one value per series; every other tick holds a bitmap
// of the series whose value moved since the tick before (bit for bit) and
// those values only, since most series sit flat for most of a run. Ticks lie
// back to back in a chain of fixed-size chunks of 64-bit words, so a tick
// costs sixteen bytes, plus eight per series for a key tick or eight per 64
// series and per moved value for the rest, and the metric and label strings
// of a series exist once, not once per sample. A chunk is filled once and
// never copied or regrown, so the store allocates what it ends up holding,
// and a tick never spans two chunks. Readers see every tick as one full row,
// rebuilt as they walk the store.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// MetricType distinguishes the exposition families.
type MetricType int

// Metric families, matching the Prometheus exposition TYPE names.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// SamplePoint is one exported time-series sample: the value of one
// instrument at one sampler tick. The registry stores columns, not points;
// Samples and ReadJSONL materialise them.
type SamplePoint struct {
	At     time.Duration
	Metric string
	// Labels is the instrument's rendered label set (`exec="0"`), empty
	// for unlabelled instruments.
	Labels string
	Value  float64
}

// family is one metric name: its metadata plus one instrument per label set.
type family struct {
	name, help string
	typ        MetricType
	insts      map[string]*instrument
}

func (f *family) sortedKeys() []string {
	keys := make([]string, 0, len(f.insts))
	for k := range f.insts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// instrument is the shared state behind Counter/Gauge/Histogram handles.
type instrument struct {
	labels string
	// cols are the instrument's sampled series: one for a scalar, _count
	// and _sum for a histogram.
	cols []*column
	val  float64
	fn   func() float64
	// histogram state: counts[i] observes bucket (buckets[i-1], buckets[i]];
	// the last slot is the +Inf overflow bucket.
	buckets []float64
	counts  []uint64
	sum     float64
	count   uint64
}

// scalar returns the instrument's current value (function-backed
// instruments are evaluated on each call).
func (in *instrument) scalar() float64 {
	if in.fn != nil {
		return in.fn()
	}
	return in.val
}

// Counter is a monotonically increasing value.
type Counter struct{ in *instrument }

// Inc adds one.
func (c *Counter) Inc() { c.in.val++ }

// Add adds v (callers keep counters monotone; Add does not check).
func (c *Counter) Add(v float64) { c.in.val += v }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.in.scalar() }

// Gauge is a value that can go up and down.
type Gauge struct{ in *instrument }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.in.val = v }

// Add shifts the gauge value by v.
func (g *Gauge) Add(v float64) { g.in.val += v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.in.scalar() }

// Histogram accumulates observations into fixed buckets.
type Histogram struct{ in *instrument }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	in := h.in
	idx := sort.SearchFloat64s(in.buckets, v)
	in.counts[idx]++
	in.sum += v
	in.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.in.count }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.in.sum }

// column is one sampled series: how to read its current value, and the
// bytes every JSONL row of it shares.
type column struct {
	metric, labels string
	read           func() float64
	// prefix is `,"metric":…,"labels":…,"value":` as encoding/json renders
	// it (labels omitted when empty), so the dump inherits its escaping.
	prefix []byte
}

func newColumn(metric, labels string, read func() float64) *column {
	// A zero-valued row is `{"t":0` + prefix + `0}`.
	row, _ := json.Marshal(jsonSample{Metric: metric, Labels: labels}) // strings and zeros always marshal
	return &column{metric: metric, labels: labels, read: read, prefix: row[len(`{"t":0`) : len(row)-len(`0}`)]}
}

// layout is the series list in export order — families by name, label sets
// within a family, a histogram's _count before its _sum. A layout is never
// edited once a tick refers to it; id is its index in Registry.layouts, which
// is how a stored tick names it.
type layout struct {
	cols []*column
	id   int
}

// A chunk of the sample store holds chunkWords words, or the chunkTicks key
// ticks of a narrow layout, or one tick wider than that.
const (
	chunkWords = 8192
	chunkTicks = 256
)

// row is the full row of a stored tick; layout is nil while there is none.
type row struct {
	at     time.Duration
	layout *layout
	vals   []float64
}

// tick is one sampler tick as the readers see it: its full row, in a buffer
// the next tick overwrites, and changed, one bit per column set where the
// value moved since the tick before — nil for a key tick, all of whose values
// count as moved.
type tick struct {
	at      time.Duration
	layout  *layout
	vals    []float64
	changed []uint64
}

// moved reports whether column i's value moved at tk.
func (tk *tick) moved(i int) bool {
	return tk.changed == nil || tk.changed[i/64]&(1<<(i%64)) != 0
}

// Registry holds every instrument of one run plus the samples the periodic
// sampler collected. Instruments register lazily and idempotently:
// re-registering the same (name, labels) returns the existing instrument,
// so call sites do not need to coordinate.
type Registry struct {
	families map[string]*family
	hooks    []sampleHook
	// layout is nil while stale: creating an instrument clears it and the
	// next Sample builds a new one, leaving earlier ticks on theirs. layouts
	// lists every layout built, by id.
	layout  *layout
	layouts []*layout
	// chunks is the sample store, ticks in sampling order. A tick is its
	// instant and its layout's id, then for a key tick the bits of every
	// value, for any other ⌈width/64⌉ words of changed-bitmap and the bits
	// of every changed value, in column order.
	chunks [][]uint64
	// last and prev are the full rows of the newest tick and the one before
	// it, and lastOff is where the newest starts in the last chunk: a
	// same-instant re-sample replaces the newest and diffs against prev.
	last, prev row
	lastOff    int
	// ticks and points count the ticks held and the samples they stand for.
	ticks, points int
}

type sampleHook struct {
	name string
	fn   func(at time.Duration)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelString renders key-value pairs as a canonical `k1="v1",k2="v2"`
// string with keys sorted, so the same label set always maps to the same
// instrument and export position.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String()
}

func (r *Registry) instrument(name, help string, typ MetricType, labels []string) *instrument {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, insts: map[string]*instrument{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s registered as %s and %s", name, f.typ, typ))
	}
	ls := labelString(labels)
	in, ok := f.insts[ls]
	if !ok {
		in = &instrument{labels: ls}
		if typ == TypeHistogram {
			in.cols = []*column{
				newColumn(name+"_count", ls, func() float64 { return float64(in.count) }),
				newColumn(name+"_sum", ls, func() float64 { return in.sum }),
			}
		} else {
			in.cols = []*column{newColumn(name, ls, in.scalar)}
		}
		f.insts[ls] = in
		r.layout = nil
	}
	return in
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{r.instrument(name, help, TypeCounter, labels)}
}

// CounterFunc registers a counter whose value is read from fn at sample and
// export time — for cumulative totals the engine already tracks.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.instrument(name, help, TypeCounter, labels).fn = fn
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return &Gauge{r.instrument(name, help, TypeGauge, labels)}
}

// GaugeFunc registers a gauge whose value is read from fn at sample and
// export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.instrument(name, help, TypeGauge, labels).fn = fn
}

// Histogram registers (or returns the existing) histogram with the given
// upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	in := r.instrument(name, help, TypeHistogram, labels)
	if in.counts == nil {
		in.buckets = append([]float64(nil), buckets...)
		in.counts = make([]uint64, len(buckets)+1)
	}
	return &Histogram{in}
}

// OnSample registers the hook called name, invoked at the start of every
// Sample tick — used for derived gauges that need windowed deltas (e.g. ζ
// over the last sampling interval). Like GaugeFunc, registering a name again
// replaces its function, so successive engines on one registry leave one
// hook, not one per engine. Hooks run in order of first registration.
func (r *Registry) OnSample(name string, fn func(at time.Duration)) {
	for i := range r.hooks {
		if r.hooks[i].name == name {
			r.hooks[i].fn = fn
			return
		}
	}
	r.hooks = append(r.hooks, sampleHook{name, fn})
}

func (r *Registry) sortedNames() []string {
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sample records the value of every scalar series (histograms contribute
// their _count and _sum) at the given virtual time. Sampling the same
// instant twice merges last-wins: the second tick replaces the first's rows.
func (r *Registry) Sample(at time.Duration) {
	for _, h := range r.hooks {
		h.fn(at)
	}
	if r.layout == nil {
		r.layout = &layout{id: len(r.layouts)}
		for _, name := range r.sortedNames() {
			f := r.families[name]
			for _, ls := range f.sortedKeys() {
				r.layout.cols = append(r.layout.cols, f.insts[ls].cols...)
			}
		}
		r.layouts = append(r.layouts, r.layout)
	}
	if r.last.layout != nil && r.last.at == at {
		// The newest tick is the tail of the last chunk.
		r.chunks[len(r.chunks)-1] = r.chunks[len(r.chunks)-1][:r.lastOff]
		r.ticks, r.points = r.ticks-1, r.points-len(r.last.vals)
	} else {
		r.last, r.prev = r.prev, r.last
	}
	cols, cur, ref := r.layout.cols, &r.last, &r.prev
	cur.at, cur.layout = at, r.layout
	if cap(cur.vals) < len(cols) {
		cur.vals = make([]float64, len(cols))
	}
	cur.vals = cur.vals[:len(cols)]
	for i, col := range cols {
		cur.vals[i] = col.read()
	}
	key := ref.layout != r.layout
	n := len(cols)
	if !key {
		n = (len(cols) + 63) / 64
		for i, v := range cur.vals {
			if math.Float64bits(v) != math.Float64bits(ref.vals[i]) {
				n++
			}
		}
	}
	if k := len(r.chunks); k == 0 || cap(r.chunks[k-1])-len(r.chunks[k-1]) < 2+n {
		r.chunks = append(r.chunks, make([]uint64, 0, max(2+n, min(chunkWords, chunkTicks*(2+len(cols))))))
	}
	c := &r.chunks[len(r.chunks)-1]
	r.lastOff = len(*c)
	*c = append(*c, uint64(at), uint64(r.layout.id))
	if key {
		for _, v := range cur.vals {
			*c = append(*c, math.Float64bits(v))
		}
	} else {
		mask := len(*c)
		*c = (*c)[:mask+(len(cols)+63)/64]
		clear((*c)[mask:])
		for i, v := range cur.vals {
			if b := math.Float64bits(v); b != math.Float64bits(ref.vals[i]) {
				(*c)[mask+i/64] |= 1 << (i % 64)
				*c = append(*c, b)
			}
		}
	}
	r.ticks, r.points = r.ticks+1, r.points+len(cols)
}

// allTicks yields the collected ticks in sampling order, rebuilding each
// one's full row into one buffer.
func (r *Registry) allTicks(yield func(tick) bool) {
	var tk tick
	var buf []float64
	for _, c := range r.chunks {
		for off := 0; off < len(c); {
			tk.at = time.Duration(c[off])
			l := r.layouts[c[off+1]]
			off += 2
			if n := len(l.cols); l != tk.layout {
				if cap(buf) < n {
					buf = make([]float64, n)
				}
				tk.layout, tk.vals, tk.changed = l, buf[:n], nil
				for i := range tk.vals {
					tk.vals[i] = math.Float64frombits(c[off+i])
				}
				off += n
			} else {
				tk.changed = c[off : off+(n+63)/64]
				off += len(tk.changed)
				for w, m := range tk.changed {
					for ; m != 0; m &= m - 1 {
						tk.vals[w*64+bits.TrailingZeros64(m)] = math.Float64frombits(c[off])
						off++
					}
				}
			}
			if !yield(tk) {
				return
			}
		}
	}
}

// Samples materialises every collected sample in recording order. The
// exporters and Series read the columns directly; this view is for callers
// that want points.
func (r *Registry) Samples() []SamplePoint {
	out := make([]SamplePoint, 0, r.points)
	for tk := range r.allTicks {
		for i, c := range tk.layout.cols {
			out = append(out, SamplePoint{At: tk.at, Metric: c.metric, Labels: c.labels, Value: tk.vals[i]})
		}
	}
	return out
}

// Series returns one instrument's samples in recording order, as a new slice
// the caller may modify, reporting whether any samples exist.
func (r *Registry) Series(name string, labels ...string) ([]SamplePoint, bool) {
	ls := labelString(labels)
	out := make([]SamplePoint, 0, r.ticks)
	var cur *layout
	idx := -1
	for tk := range r.allTicks {
		if tk.layout != cur {
			cur, idx = tk.layout, -1
			for i, c := range cur.cols {
				if c.metric == name && c.labels == ls {
					idx = i
					break
				}
			}
		}
		if idx >= 0 {
			out = append(out, SamplePoint{At: tk.at, Metric: name, Labels: ls, Value: tk.vals[idx]})
		}
	}
	return out, len(out) > 0
}

// Value returns an instrument's current scalar value, reporting whether
// the (name, labels) pair is registered. Histograms report their count.
func (r *Registry) Value(name string, labels ...string) (float64, bool) {
	f, ok := r.families[name]
	if !ok {
		return 0, false
	}
	in, ok := f.insts[labelString(labels)]
	if !ok {
		return 0, false
	}
	if f.typ == TypeHistogram {
		return float64(in.count), true
	}
	return in.scalar(), true
}
