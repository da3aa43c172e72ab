package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestIntervalThroughput(t *testing.T) {
	iv := Interval{Start: 0, End: 2 * time.Second, Bytes: 100 << 20, Tasks: 4}
	if got, want := iv.Throughput(), float64(100<<20)/2; math.Abs(got-want) > 1e-6 {
		t.Fatalf("throughput = %v, want %v", got, want)
	}
}

func TestIntervalZeroDuration(t *testing.T) {
	iv := Interval{Start: time.Second, End: time.Second, Bytes: 1 << 20}
	if iv.Throughput() != 0 {
		t.Fatal("zero-duration interval should have zero throughput")
	}
	if iv.Congestion() != 0 {
		t.Fatal("zero-duration interval should have zero congestion")
	}
}

func TestCongestionFormula(t *testing.T) {
	iv := Interval{
		Start:     0,
		End:       10 * time.Second,
		BlockedIO: 5 * time.Second,
		Bytes:     200 << 20,
		Tasks:     2,
	}
	mu := iv.Throughput()
	want := 5.0 / mu
	if got := iv.Congestion(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ζ = %v, want ε/µ = %v", got, want)
	}
}

func TestCongestionNoIO(t *testing.T) {
	iv := Interval{Start: 0, End: time.Second, BlockedIO: time.Second, Bytes: 0, Tasks: 1}
	if iv.Congestion() != 0 {
		t.Fatal("no-data interval must report zero congestion")
	}
}

func TestMerge(t *testing.T) {
	a := Interval{Start: time.Second, End: 3 * time.Second, BlockedIO: time.Second, Bytes: 10, Tasks: 1}
	b := Interval{Start: 2 * time.Second, End: 5 * time.Second, BlockedIO: 2 * time.Second, Bytes: 20, Tasks: 1}
	m := a.Merge(b)
	if m.Start != time.Second || m.End != 5*time.Second {
		t.Fatalf("window = [%v,%v]", m.Start, m.End)
	}
	if m.BlockedIO != 3*time.Second || m.Bytes != 30 || m.Tasks != 2 {
		t.Fatalf("merge = %+v", m)
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	var acc Interval
	b := Interval{Start: 7 * time.Second, End: 9 * time.Second, Bytes: 5, Tasks: 1}
	acc = acc.Merge(b)
	if acc.Start != 7*time.Second || acc.End != 9*time.Second || acc.Tasks != 1 {
		t.Fatalf("merge into empty = %+v", acc)
	}
}

// Property: Merge is commutative in all aggregate fields.
func TestMergeCommutativeProperty(t *testing.T) {
	f := func(s1, e1, s2, e2 uint16, b1, b2 uint32) bool {
		a := Interval{Start: time.Duration(s1), End: time.Duration(s1) + time.Duration(e1), Bytes: int64(b1), Tasks: 1, BlockedIO: time.Duration(b1)}
		b := Interval{Start: time.Duration(s2), End: time.Duration(s2) + time.Duration(e2), Bytes: int64(b2), Tasks: 1, BlockedIO: time.Duration(b2)}
		ab, ba := a.Merge(b), b.Merge(a)
		return ab.Start == ba.Start && ab.End == ba.End && ab.Bytes == ba.Bytes &&
			ab.Tasks == ba.Tasks && ab.BlockedIO == ba.BlockedIO
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesEmpty(t *testing.T) {
	got := Quantiles(nil, 0.5, 0.95, 0.99)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("q[%d] = %v, want 0 for empty input", i, v)
		}
	}
}

func TestQuantilesSingle(t *testing.T) {
	got := Quantiles([]time.Duration{7 * time.Second}, 0.01, 0.5, 0.99, 1)
	for i, v := range got {
		if v != 7*time.Second {
			t.Fatalf("q[%d] = %v, want 7s: every quantile of a singleton is its value", i, v)
		}
	}
}

func TestQuantilesDuplicates(t *testing.T) {
	vals := []time.Duration{
		3 * time.Second, 3 * time.Second, 3 * time.Second,
		3 * time.Second, 9 * time.Second,
	}
	got := Quantiles(vals, 0.5, 0.8, 0.95, 1)
	if got[0] != 3*time.Second || got[1] != 3*time.Second {
		t.Fatalf("p50/p80 = %v/%v, want 3s/3s", got[0], got[1])
	}
	if got[2] != 9*time.Second || got[3] != 9*time.Second {
		t.Fatalf("p95/max = %v/%v, want 9s/9s", got[2], got[3])
	}
}

func TestQuantilesNearestRank(t *testing.T) {
	// 1s..10s: nearest-rank p50 = ⌈0.5·10⌉ = 5th value, p95 = 10th, p99 = 10th.
	var vals []time.Duration
	for i := 10; i >= 1; i-- { // unsorted input: helper must sort a copy
		vals = append(vals, time.Duration(i)*time.Second)
	}
	got := Quantiles(vals, 0.5, 0.95, 0.99, 1)
	want := []time.Duration{5 * time.Second, 10 * time.Second, 10 * time.Second, 10 * time.Second}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("q[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if vals[0] != 10*time.Second {
		t.Fatal("Quantiles must not reorder its input")
	}
}

func TestQuantilesClampAndEdges(t *testing.T) {
	vals := []time.Duration{3 * time.Second, time.Second, 2 * time.Second}
	// p <= 0 clamps to the minimum (rank 1); p > 1 clamps to the maximum.
	got := Quantiles(vals, -0.5, 0, 1.7)
	if got[0] != time.Second || got[1] != time.Second {
		t.Fatalf("p<=0 should clamp to the minimum: got %v", got[:2])
	}
	if got[2] != 3*time.Second {
		t.Fatalf("p>1 should clamp to the maximum: got %v", got[2])
	}
	if vals[0] != 3*time.Second {
		t.Fatal("Quantiles must not reorder its input")
	}
}

func TestQuantilesDuplicateValues(t *testing.T) {
	vals := []time.Duration{time.Second, time.Second, time.Second, 5 * time.Second}
	got := Quantiles(vals, 0.5, 0.75, 1)
	if got[0] != time.Second || got[1] != time.Second {
		t.Fatalf("duplicate-heavy quantiles = %v", got)
	}
	if got[2] != 5*time.Second {
		t.Fatalf("max = %v, want 5s", got[2])
	}
}

func TestQuantilesSingleElement(t *testing.T) {
	vals := []time.Duration{7 * time.Second}
	got := Quantiles(vals, 0.01, 0.5, 1)
	for i, q := range got {
		if q != 7*time.Second {
			t.Fatalf("quantile %d = %v, want 7s for a single element", i, q)
		}
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Start: 0, End: time.Second, BlockedIO: 100 * time.Millisecond, Bytes: 1 << 20, Tasks: 2}
	s := iv.String()
	if s == "" {
		t.Fatal("empty string")
	}
}
