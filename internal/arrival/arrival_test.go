package arrival

import (
	"math"
	"testing"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{
		Proc: Poisson{RatePerSec: 0.5},
		Classes: []Class{
			{Name: "interactive", Weight: 3, Priority: 1},
			{Name: "batch", Weight: 1},
		},
		Seed:    42,
		Horizon: time.Hour,
	}
	a, b := spec.Generate(), spec.Generate()
	if len(a) == 0 {
		t.Fatal("no arrivals generated")
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	spec.Seed = 43
	c := spec.Generate()
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].At != c[i].At {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	spec := Spec{Proc: Poisson{RatePerSec: 2}, Seed: 1, Horizon: 2 * time.Hour}
	sched := spec.Generate()
	got := float64(len(sched)) / spec.Horizon.Seconds()
	if math.Abs(got-2) > 0.1 {
		t.Fatalf("empirical rate %.3f/s, want ≈2/s", got)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].At <= sched[i-1].At {
			t.Fatalf("arrivals not strictly increasing at %d: %v then %v",
				i, sched[i-1].At, sched[i].At)
		}
		if sched[i].Seq != i {
			t.Fatalf("seq %d at index %d", sched[i].Seq, i)
		}
	}
}

func TestBurstyConcentratesInOnWindows(t *testing.T) {
	proc := Bursty{OnRate: 2, OffRate: 0.05, On: time.Minute, Off: 4 * time.Minute}
	spec := Spec{Proc: proc, Seed: 7, Horizon: 2 * time.Hour}
	sched := spec.Generate()
	var on, off int
	for _, a := range sched {
		if proc.Rate(a.At) == proc.OnRate {
			on++
		} else {
			off++
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("on=%d off=%d: both phases should see arrivals", on, off)
	}
	// On-rate is 40× off-rate over 1/4 the time: expect ~10× the arrivals.
	if on < 5*off {
		t.Fatalf("on=%d off=%d: bursts not concentrated", on, off)
	}
}

func TestDiurnalRate(t *testing.T) {
	d := Diurnal{Period: 24 * time.Hour, Rates: []float64{1, 2, 3}}
	if got := d.Rate(0); got != 1 {
		t.Fatalf("rate(0h) = %v", got)
	}
	if got := d.Rate(9 * time.Hour); got != 2 {
		t.Fatalf("rate(9h) = %v", got)
	}
	if got := d.Rate(23 * time.Hour); got != 3 {
		t.Fatalf("rate(23h) = %v", got)
	}
	if got := d.Rate(25 * time.Hour); got != 1 {
		t.Fatalf("rate(25h) = %v, want wraparound", got)
	}
	if d.Peak() != 3 {
		t.Fatalf("peak = %v", d.Peak())
	}
}

func TestClassMixDoesNotMoveArrivals(t *testing.T) {
	base := Spec{Proc: Poisson{RatePerSec: 1}, Seed: 5, Horizon: time.Hour}
	mixed := base
	mixed.Classes = []Class{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}}
	sa, sb := base.Generate(), mixed.Generate()
	if len(sa) != len(sb) {
		t.Fatalf("lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].At != sb[i].At {
			t.Fatalf("arrival %d moved: %v vs %v", i, sa[i].At, sb[i].At)
		}
	}
	var a, b int
	for _, x := range sb {
		switch x.Class.Name {
		case "a":
			a++
		case "b":
			b++
		default:
			t.Fatalf("unexpected class %q", x.Class.Name)
		}
	}
	if a == 0 || b == 0 {
		t.Fatalf("class mix not drawn: a=%d b=%d", a, b)
	}
}

func TestMaxJobsAndHorizon(t *testing.T) {
	spec := Spec{Proc: Poisson{RatePerSec: 10}, Seed: 3, Horizon: time.Hour, MaxJobs: 25}
	sched := spec.Generate()
	if len(sched) != 25 {
		t.Fatalf("len = %d, want 25", len(sched))
	}
	spec.MaxJobs = 0
	for _, a := range spec.Generate() {
		if a.At >= spec.Horizon {
			t.Fatalf("arrival at %v beyond horizon %v", a.At, spec.Horizon)
		}
	}
}

// TestRunawayPeakRateEnds: at 1e12 jobs/s every gap rounds to 0 ns, so the
// clock never reaches the horizon and, with no MaxJobs, only the bound on
// candidate draws ends Generate; it must return promptly.
func TestRunawayPeakRateEnds(t *testing.T) {
	spec := Spec{
		Proc:    Bursty{OnRate: 1, OffRate: 1e12, On: time.Second, Off: time.Second},
		Seed:    7,
		Horizon: time.Hour,
	}
	done := make(chan int)
	go func() { done <- len(spec.Generate()) }()
	select {
	case n := <-done:
		if n > maxDraws {
			t.Fatalf("%d arrivals from at most %d draws", n, maxDraws)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Generate did not return within 10s")
	}
}
