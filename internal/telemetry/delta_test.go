package telemetry

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// refStore is the sample store as it was before ticks kept only what moved:
// one full row per tick, a same-instant re-sample replacing the newest row.
type refStore struct{ rows [][]SamplePoint }

func (s *refStore) sample(row []SamplePoint) {
	if n := len(s.rows); n > 0 && s.rows[n-1][0].At == row[0].At {
		s.rows[n-1] = row
		return
	}
	s.rows = append(s.rows, row)
}

func (s *refStore) points() []SamplePoint {
	var out []SamplePoint
	for _, row := range s.rows {
		out = append(out, row...)
	}
	return out
}

// csv writes the points as WriteCSV did: every value formatted afresh.
func (s *refStore) csv() string {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	cw.Write([]string{"t_seconds", "metric", "labels", "value"})
	for _, p := range s.points() {
		cw.Write([]string{formatValue(p.At.Seconds()), p.Metric, p.Labels, formatValue(p.Value)})
	}
	cw.Flush()
	return b.String()
}

// samePoints reports whether a and b hold the same points, values bit for bit.
func samePoints(a, b []SamplePoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.At != y.At || x.Metric != y.Metric || x.Labels != y.Labels || math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
	}
	return true
}

// TestStoreMatchesFullRowReference drives registries through seeded
// histories — series that move or sit still, −0 after 0, ±Inf and two NaNs of
// different bits, series created mid-chunk, same-instant re-samples with and
// without a layout change between them, and a layout wider than a chunk — and
// requires Samples, Series, WriteJSONL (against the encoding/json oracle) and
// WriteCSV to read what a store of full rows holds.
func TestStoreMatchesFullRowReference(t *testing.T) {
	finite := []float64{0, math.Copysign(0, -1), 1, 1.5, -2.25, 1e21, 5e-324}
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000001)}
	var seen struct{ crossed, resampled, resampledGrown, wide, special bool }
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		palette := finite
		if seed%2 == 1 {
			palette = append(append([]float64(nil), finite...), special...)
		}
		pick := func() float64 {
			if rng.Intn(4) == 0 {
				return float64(rng.Intn(1000)) / 8
			}
			return palette[rng.Intn(len(palette))]
		}
		moveP := []float64{0.02, 0.2, 0.6, 0.95}[seed%4]
		r, ref := NewRegistry(), &refStore{}
		var gauges []*Gauge
		var vals []float64
		grow := func(n int) {
			for range n {
				gauges = append(gauges, r.Gauge("sae_d", "d", "i", fmt.Sprintf("%05d", len(gauges))))
				vals = append(vals, pick())
				gauges[len(gauges)-1].Set(vals[len(vals)-1])
			}
		}
		grow(1 + rng.Intn(20))
		const ticks = 600
		var at time.Duration
		for i := 0; i < ticks; i++ {
			grown := false
			if i == ticks-5 && seed%4 == 3 {
				grow(chunkWords) // every later tick is wider than a chunk
				seen.wide, grown = true, true
			} else if rng.Intn(20) == 0 {
				grow(1 + rng.Intn(3))
				grown = true
			}
			for c := range gauges {
				if rng.Float64() < moveP {
					vals[c] = pick()
					gauges[c].Set(vals[c])
				}
			}
			if i == 0 || rng.Intn(6) != 0 {
				at += time.Duration(1+rng.Intn(3)) * 250 * time.Millisecond
			} else if grown {
				seen.resampledGrown = true
			} else {
				seen.resampled = true
			}
			r.Sample(at)
			row := make([]SamplePoint, len(vals))
			for c, v := range vals {
				row[c] = SamplePoint{At: at, Metric: "sae_d", Labels: fmt.Sprintf("i=%q", fmt.Sprintf("%05d", c)), Value: v}
				seen.special = seen.special || math.IsNaN(v) || math.IsInf(v, 0)
			}
			ref.sample(row)
		}
		seen.crossed = seen.crossed || len(r.chunks) > 1
		chunkTicksOf(t, r)

		if got, want := r.Samples(), ref.points(); !samePoints(got, want) {
			t.Fatalf("seed %d: Samples() holds %d points, the full-row store %d, or other values", seed, len(got), len(want))
		}
		for _, c := range []int{0, len(gauges) / 2, len(gauges) - 1} {
			var want []SamplePoint
			for _, row := range ref.rows {
				if c < len(row) {
					want = append(want, row[c])
				}
			}
			if got, _ := r.Series("sae_d", "i", fmt.Sprintf("%05d", c)); !samePoints(got, want) {
				t.Fatalf("seed %d: Series of column %d differs from the full-row store's", seed, c)
			}
		}
		jsonlAgainstOracle(t, r)
		var got bytes.Buffer
		if err := r.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if want := ref.csv(); got.String() != want {
			t.Fatalf("seed %d: WriteCSV (%d bytes) differs from the full-row store's (%d bytes)", seed, got.Len(), len(want))
		}
	}
	if !seen.crossed || !seen.resampled || !seen.resampledGrown || !seen.wide || !seen.special {
		t.Fatalf("the histories missed a case: %+v", seen)
	}
}
