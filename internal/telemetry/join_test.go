package telemetry

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// joinRun drives one synthetic engine run on reg, as the engine's telemetry
// does: it registers its instruments (some runs register ones the others
// lack), samples at t=0 and once a virtual second — now and then twice at
// one instant — and freezes the registry when it closes. It covers
//
//   - a counter carried across runs (sim_events_total);
//   - a gauge an OnSample hook sets, read at t=0 before its first Set (as
//     sae_executor_zeta is);
//   - a histogram observing fractional values;
//   - function instruments, one registered only by some runs;
//   - a run with no tick after t=0, whose tick merges with the next run's;
//   - a gauge registered mid-run, so the layout grows.
func joinRun(reg *Registry, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	events := reg.Counter("sim_events_total", "Events.")
	byType := reg.Counter("sim_events_by_type_total", "Events by type.", "type", fmt.Sprint(rng.Intn(3)))
	lat := reg.Histogram("sim_latency_seconds", "Latency.", []float64{0.5, 1, 2})
	state := float64(rng.Intn(10))
	reg.GaugeFunc("sim_state", "State.", func() float64 { return state })
	if seed%3 == 0 {
		reg.CounterFunc("sim_only_some_total", "Registered by every third run.", func() float64 { return 2 * state }, "run", fmt.Sprint(seed))
	}
	zeta := reg.Gauge("sim_zeta", "Windowed ratio.")
	var last time.Duration
	reg.OnSample("sim_zeta", func(at time.Duration) {
		if at <= last {
			return
		}
		zeta.Set(state / float64(at-last))
		last = at
	})
	reg.Sample(0)
	ticks := rng.Intn(6)
	for i := 1; i <= ticks; i++ {
		events.Add(float64(rng.Intn(5)))
		byType.Inc()
		for range rng.Intn(4) {
			lat.Observe(float64(rng.Float64() * 3))
		}
		state = float64(rng.Intn(10))
		if i == 2 {
			reg.Gauge("sim_job_running", "Running jobs.", "job", fmt.Sprint(seed)).Set(1)
		}
		at := time.Duration(i) * time.Second
		reg.Sample(at)
		if rng.Intn(3) == 0 {
			state++
			reg.Sample(at)
		}
	}
	reg.Freeze()
}

// dump is everything a registry exports: JSONL, CSV and Prometheus text.
func dump(t *testing.T, reg *Registry) string {
	var b bytes.Buffer
	for _, write := range []func(*bytes.Buffer) error{
		func(w *bytes.Buffer) error { return reg.WriteJSONL(w) },
		func(w *bytes.Buffer) error { return reg.WriteCSV(w) },
		func(w *bytes.Buffer) error { return reg.WritePrometheus(w) },
	} {
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestJoinMatchesSequentialRegistry: a registry whose runs went one after
// another, and one that sampled its first run itself and the rest through
// children — forked up front, run in reverse, joined in order, one of them
// holding a run of its own and a grandchild joined into it — export the same
// JSONL, CSV and Prometheus bytes, over 200 seeded sets of runs. Later sets
// take their children off the spares, whose instruments sit dormant until a
// run registers them again.
func TestJoinMatchesSequentialRegistry(t *testing.T) {
	for set := range 200 {
		base := int64(set) * 10
		n := 2 + set%5
		seq := NewRegistry()
		for i := range n {
			joinRun(seq, base+int64(i))
		}
		reg := NewRegistry()
		joinRun(reg, base)
		kids := make([]*Registry, n-1)
		for i := range kids {
			kids[i] = reg.Fork()
		}
		nested := n >= 4
		for i := len(kids) - 1; i >= 0; i-- {
			if nested && i == 1 {
				continue // the grandchild's run, joined into kids[0]
			}
			if nested && i == 0 {
				grand := kids[0].Fork()
				joinRun(grand, base+2)
				joinRun(kids[0], base+1)
				kids[0].Join(grand)
				continue
			}
			joinRun(kids[i], base+1+int64(i))
		}
		for i, k := range kids {
			if nested && i == 1 {
				k.recycle() // ran nothing: its run went through the grandchild
				continue
			}
			reg.Join(k)
		}
		if got, want := dump(t, reg), dump(t, seq); got != want {
			t.Fatalf("set %d (%d runs): the joined registry exports\n%s\nwant\n%s", set, n, got, want)
		}
	}
}

// TestFreezeKeepsFinalValues: after Freeze a function-backed instrument
// holds what its function read, whatever the function's state does next,
// and a later registration under the same name reads a function again.
func TestFreezeKeepsFinalValues(t *testing.T) {
	reg := NewRegistry()
	x := 3.0
	reg.GaugeFunc("g", "", func() float64 { return x })
	reg.Freeze()
	x = 5
	if v, _ := reg.Value("g"); v != 3 {
		t.Fatalf("frozen gauge reads %v, want 3", v)
	}
	reg.GaugeFunc("g", "", func() float64 { return x })
	if v, _ := reg.Value("g"); v != 5 {
		t.Fatalf("re-registered gauge reads %v, want 5", v)
	}
}
