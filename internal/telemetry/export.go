package telemetry

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"sae/internal/jsonenc"
)

// formatValue renders a float in its shortest round-trip form, byte-stable
// across runs and platforms. The Prometheus and CSV exporters use it; the
// JSONL dump follows encoding/json's float rule instead (jsonenc.AppendFloat).
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry's current values in the Prometheus
// text exposition format (version 0.0.4): families sorted by name, series
// sorted by label set, histograms expanded into cumulative _bucket/_sum/
// _count lines.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range r.appendSortedNames(nil) {
		f := r.families[name]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, f.typ)
		for _, ls := range f.appendSortedKeys(nil) {
			in := f.insts[ls]
			if f.typ == TypeHistogram {
				writePromHistogram(bw, name, in)
				continue
			}
			writePromLine(bw, name, ls, in.scalar())
		}
	}
	return bw.Flush()
}

func writePromLine(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
}

func writePromHistogram(w io.Writer, name string, in *instrument) {
	bucketLabels := func(le string) string {
		if in.labels == "" {
			return fmt.Sprintf("le=%q", le)
		}
		return fmt.Sprintf("%s,le=%q", in.labels, le)
	}
	var cum uint64
	for i, ub := range in.buckets {
		cum += in.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, bucketLabels(formatValue(ub)), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, bucketLabels("+Inf"), in.count)
	writePromLine(w, name+"_sum", in.labels, in.sum)
	if in.labels == "" {
		fmt.Fprintf(w, "%s_count %d\n", name, in.count)
	} else {
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, in.labels, in.count)
	}
}

// jsonSample is one JSONL row as ReadJSONL decodes it. WriteJSONL writes
// the bytes encoding/json would write for it, without the reflection.
type jsonSample struct {
	T      float64 `json:"t"`
	Metric string  `json:"metric"`
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// WriteJSONL writes every collected sample as one JSON object per line, in
// recording order (time-major, then sorted metric/label order within each
// tick). A NaN or infinite sample fails the dump with encoding/json's
// unsupported-value error.
func (r *Registry) WriteJSONL(w io.Writer) error {
	const flushAt = 32 << 10
	buf := make([]byte, 0, flushAt+512)
	var head []byte   // `{"t":…`, rendered once per tick
	var vals [][]byte // each column's value, rendered when it moves
	var err error
	for tk := range r.allTicks {
		if head, err = jsonenc.AppendFloat(append(head[:0], `{"t":`...), tk.at.Seconds()); err != nil {
			return err
		}
		for i, c := range tk.layout.cols {
			if i == len(vals) {
				vals = append(vals, nil)
			}
			if tk.moved(i) {
				if vals[i], err = jsonenc.AppendFloat(vals[i][:0], tk.vals[i]); err != nil {
					return err
				}
			}
			buf = append(append(append(buf, head...), c.prefix...), vals[i]...)
			buf = append(buf, '}', '\n')
			if len(buf) >= flushAt {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	_, err = w.Write(buf)
	return err
}

// WriteCSV writes the collected samples as a four-column CSV
// (t_seconds, metric, labels, value) in recording order.
func (r *Registry) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_seconds", "metric", "labels", "value"}); err != nil {
		return err
	}
	rec := make([]string, 4)
	var vals []string // each column's value, formatted when it moves
	for tk := range r.allTicks {
		rec[0] = formatValue(tk.at.Seconds())
		for i, c := range tk.layout.cols {
			if i == len(vals) {
				vals = append(vals, "")
			}
			if tk.moved(i) {
				vals[i] = formatValue(tk.vals[i])
			}
			rec[1], rec[2], rec[3] = c.metric, c.labels, vals[i]
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadJSONL decodes a dump produced by WriteJSONL back into sample points
// (times are rounded to the nanosecond the Duration held).
func ReadJSONL(rd io.Reader) ([]SamplePoint, error) {
	dec := json.NewDecoder(rd)
	var out []SamplePoint
	for dec.More() {
		var js jsonSample
		if err := dec.Decode(&js); err != nil {
			return out, fmt.Errorf("telemetry: decode metrics dump: %w", err)
		}
		out = append(out, SamplePoint{
			At:     secondsToDuration(js.T),
			Metric: js.Metric,
			Labels: js.Labels,
			Value:  js.Value,
		})
	}
	return out, nil
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(math.Round(s * 1e9))
}
