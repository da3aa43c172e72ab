package psres

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
	"time"

	"sae/internal/sim"
)

func sec(d float64) time.Duration { return time.Duration(d * float64(time.Second)) }

func TestSingleStreamFullRate(t *testing.T) {
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "disk", Curve: Flat(100)})
	var done time.Duration
	k.Go("c", func(p *sim.Proc) {
		s.Serve(p, 500, 1)
		done = p.Now()
	})
	k.Run()
	if got, want := done.Seconds(), 5.0; math.Abs(got-want) > 1e-6 {
		t.Fatalf("done at %vs, want %vs", got, want)
	}
}

func TestFairSharing(t *testing.T) {
	// Two equal streams on a flat 100 u/s server: each gets 50 u/s.
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "disk", Curve: Flat(100)})
	var t1, t2 time.Duration
	k.Go("a", func(p *sim.Proc) { s.Serve(p, 100, 1); t1 = p.Now() })
	k.Go("b", func(p *sim.Proc) { s.Serve(p, 100, 1); t2 = p.Now() })
	k.Run()
	if math.Abs(t1.Seconds()-2.0) > 1e-6 || math.Abs(t2.Seconds()-2.0) > 1e-6 {
		t.Fatalf("completions %v %v, want 2s both", t1, t2)
	}
}

func TestDepartureSpeedsUpRemaining(t *testing.T) {
	// Stream A: 50 units, stream B: 150 units, flat 100 u/s.
	// Phase 1: both at 50 u/s until A finishes at t=1 (B has 100 left).
	// Phase 2: B alone at 100 u/s, finishes at t=2.
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "disk", Curve: Flat(100)})
	var ta, tb time.Duration
	k.Go("a", func(p *sim.Proc) { s.Serve(p, 50, 1); ta = p.Now() })
	k.Go("b", func(p *sim.Proc) { s.Serve(p, 150, 1); tb = p.Now() })
	k.Run()
	if math.Abs(ta.Seconds()-1.0) > 1e-6 {
		t.Fatalf("A done at %v, want 1s", ta)
	}
	if math.Abs(tb.Seconds()-2.0) > 1e-6 {
		t.Fatalf("B done at %v, want 2s", tb)
	}
}

func TestLateArrivalSlowsDown(t *testing.T) {
	// A starts alone (100 u/s). At t=1, B arrives; both at 50 u/s.
	// A has 100 left at t=1, finishes at t=3.
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "disk", Curve: Flat(100)})
	var ta time.Duration
	k.Go("a", func(p *sim.Proc) { s.Serve(p, 200, 1); ta = p.Now() })
	k.Go("b", func(p *sim.Proc) {
		p.Sleep(time.Second)
		s.Serve(p, 500, 1)
	})
	k.Run()
	if math.Abs(ta.Seconds()-3.0) > 1e-6 {
		t.Fatalf("A done at %v, want 3s", ta)
	}
}

func TestDegradingCurve(t *testing.T) {
	// Curve: 100 for n=1, 60 for n=2: two 60-unit streams take
	// 2 seconds together (30 u/s each).
	curve := func(n int) float64 {
		if n == 1 {
			return 100
		}
		return 60
	}
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "hdd", Curve: curve})
	var ta time.Duration
	k.Go("a", func(p *sim.Proc) { s.Serve(p, 60, 1); ta = p.Now() })
	k.Go("b", func(p *sim.Proc) { s.Serve(p, 60, 1) })
	k.Run()
	if math.Abs(ta.Seconds()-2.0) > 1e-6 {
		t.Fatalf("done at %v, want 2s", ta)
	}
}

func TestPerStreamCap(t *testing.T) {
	// CPU-like: 4 cores, cap 1 core per stream. A single stream takes
	// demand seconds, not demand/4.
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "cpu", Curve: func(n int) float64 { return math.Min(float64(n), 4) }, PerStreamCap: 1})
	var ta time.Duration
	k.Go("a", func(p *sim.Proc) { s.Serve(p, 3, 1); ta = p.Now() })
	k.Run()
	if math.Abs(ta.Seconds()-3.0) > 1e-6 {
		t.Fatalf("done at %v, want 3s", ta)
	}
}

func TestCPUOversubscription(t *testing.T) {
	// 2 cores, 4 equal streams of 1 second each: each runs at 0.5 cores,
	// all finish at t=2.
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "cpu", Curve: func(n int) float64 { return math.Min(float64(n), 2) }, PerStreamCap: 1})
	var last time.Duration
	for i := 0; i < 4; i++ {
		k.Go("w", func(p *sim.Proc) {
			s.Serve(p, 1, 1)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Run()
	if math.Abs(last.Seconds()-2.0) > 1e-6 {
		t.Fatalf("last done at %v, want 2s", last)
	}
}

func TestWeightedStreams(t *testing.T) {
	// Flat 100, two streams, write weight 0.5: write progresses at 25 u/s
	// while the read does 50 u/s.
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "disk", Curve: Flat(100)})
	var tr, tw time.Duration
	k.Go("r", func(p *sim.Proc) { s.Serve(p, 50, 1); tr = p.Now() })
	k.Go("w", func(p *sim.Proc) { s.Serve(p, 50, 0.5); tw = p.Now() })
	k.Run()
	if math.Abs(tr.Seconds()-1.0) > 1e-6 {
		t.Fatalf("read done at %v, want 1s", tr)
	}
	// After the read leaves at t=1 the write has 25 left and runs at
	// 0.5*100 = 50 u/s alone: done at 1.5s.
	if math.Abs(tw.Seconds()-1.5) > 1e-6 {
		t.Fatalf("write done at %v, want 1.5s", tw)
	}
}

func TestZeroDemandReturnsImmediately(t *testing.T) {
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "disk", Curve: Flat(100)})
	var done time.Duration
	k.Go("a", func(p *sim.Proc) {
		s.Serve(p, 0, 1)
		done = p.Now()
	})
	k.Run()
	if done != 0 {
		t.Fatalf("zero demand took %v", done)
	}
}

func TestBusyAndUtilization(t *testing.T) {
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "disk", Curve: Flat(100)})
	var mid, end Stats
	k.Go("a", func(p *sim.Proc) {
		s.Serve(p, 100, 1) // busy [0,1]
		p.Sleep(time.Second)
		s.Serve(p, 100, 1) // busy [2,3]
		end = s.Snapshot()
	})
	k.At(sec(1.5), func() { mid = s.Snapshot() })
	k.Run()
	if got := mid.Busy; got != time.Second {
		t.Fatalf("busy at 1.5s = %v, want 1s", got)
	}
	if got := UtilizationBetween(mid, end); math.Abs(got-(1.0/1.5)) > 1e-6 {
		t.Fatalf("utilization = %v, want %v", got, 1.0/1.5)
	}
	if math.Abs(end.Served-200) > 1e-6 {
		t.Fatalf("served = %v, want 200", end.Served)
	}
}

func TestOnActiveChange(t *testing.T) {
	k := sim.NewKernel()
	var counts []int
	var s *Server
	s = NewServer(k, Config{Name: "disk", Curve: Flat(100),
		OnActiveChange: func(n int) { counts = append(counts, n) }})
	k.Go("a", func(p *sim.Proc) { s.Serve(p, 100, 1) })
	k.Go("b", func(p *sim.Proc) { s.Serve(p, 200, 1) })
	k.Run()
	want := []int{1, 2, 1, 0}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

// Property: work conservation — with a flat curve and no idling, total
// completion time of any batch equals total demand / rate.
func TestWorkConservationProperty(t *testing.T) {
	f := func(demands []uint16) bool {
		var total float64
		var ds []float64
		for _, d := range demands {
			if d == 0 {
				continue
			}
			ds = append(ds, float64(d))
			total += float64(d)
		}
		if len(ds) == 0 {
			return true
		}
		k := sim.NewKernel()
		s := NewServer(k, Config{Name: "disk", Curve: Flat(100)})
		var last time.Duration
		for _, d := range ds {
			d := d
			k.Go("w", func(p *sim.Proc) {
				s.Serve(p, d, 1)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		k.Run()
		want := total / 100
		return math.Abs(last.Seconds()-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: served units equal the sum of demands once everything drains.
func TestServedEqualsDemandProperty(t *testing.T) {
	f := func(demands []uint16, degrade bool) bool {
		curve := Flat(50)
		if degrade {
			curve = func(n int) float64 { return 50 / (1 + float64(0.2*float64(n-1))) }
		}
		k := sim.NewKernel()
		s := NewServer(k, Config{Name: "disk", Curve: curve})
		var total float64
		for _, d := range demands {
			if d == 0 {
				continue
			}
			d := float64(d)
			total += d
			k.Go("w", func(p *sim.Proc) { s.Serve(p, d, 1) })
		}
		k.Run()
		st := s.Snapshot()
		return math.Abs(st.Served-total) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with any positive curve and equal demands, equal-weight streams
// that start together finish together (processor sharing is fair).
func TestFairnessProperty(t *testing.T) {
	f := func(demandKB uint16, n uint8, peak uint16, alpha uint8) bool {
		streams := int(n%6) + 2
		demand := float64(demandKB%5000) + 1
		p := float64(peak%500) + 50
		a := float64(alpha%50) / 100
		curve := func(n int) float64 { return p / (1 + float64(a*float64(n-1))) }
		k := sim.NewKernel()
		s := NewServer(k, Config{Name: "x", Curve: curve})
		var ends []time.Duration
		for i := 0; i < streams; i++ {
			k.Go("w", func(pr *sim.Proc) {
				s.Serve(pr, demand, 1)
				ends = append(ends, pr.Now())
			})
		}
		k.Run()
		if len(ends) != streams {
			return false
		}
		for _, e := range ends {
			if d := (e - ends[0]).Seconds(); d > 1e-6 || d < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// startWaiter is a stackless process that queues one stream with Start and
// reports its wake-up: the counterpart of a coroutine process blocked in Serve.
type startWaiter struct {
	proc   sim.Proc
	s      *Server
	demand float64
	queued bool
	woke   func(p *sim.Proc)
}

func (w *startWaiter) Step() {
	if !w.queued {
		w.queued = w.s.Start(&w.proc, w.demand, 1)
		return
	}
	w.woke(&w.proc)
}

// TestSameInstantCompletionsWakeCompacted is the regression test for the
// onCompletion wake ordering: when several streams drain at the same
// timestamp, every waiter must wake *after* the server's stream set has been
// compacted, so Active() observed on wake-up reflects the waiter's own
// completion (historically the broadcast ran before state settled, so a
// waiter woken into a zero-stream server could still read a stale count).
// Waiters blocked in Serve and stackless ones queued with Start — and a mix,
// the middle stream the odd one out — must see the same thing and leave the
// kernel having fired the same number of events.
func TestSameInstantCompletionsWakeCompacted(t *testing.T) {
	var firedWithServe uint64
	for _, stackless := range [][3]bool{{}, {true, true, true}, {false, true, false}, {true, false, true}} {
		k := sim.NewKernel()
		s := NewServer(k, Config{Name: "d", Curve: Flat(10), PerStreamCap: 1})
		var activeAtWake []int
		var wakeOrder []int
		// Cap-bound streams progress independently at rate 1; demands are
		// tuned so all three drain at exactly t=1s in one completion pass.
		starts := []struct {
			at     time.Duration
			demand float64
		}{
			{0, 1.0},
			{200 * time.Millisecond, 0.8},
			{600 * time.Millisecond, 0.4},
		}
		for i, st := range starts {
			woke := func(p *sim.Proc) {
				activeAtWake = append(activeAtWake, s.Active())
				wakeOrder = append(wakeOrder, i)
				if p.Now() != time.Second {
					t.Errorf("stream %d completed at %v, want 1s", i, p.Now())
				}
			}
			k.At(st.at, func() {
				if stackless[i] {
					w := &startWaiter{s: s, demand: st.demand, woke: woke}
					k.GoStepper(&w.proc, "w", w)
					return
				}
				k.Go("w", func(p *sim.Proc) {
					s.Serve(p, st.demand, 1)
					woke(p)
				})
			})
		}
		k.Run()
		if len(activeAtWake) != 3 {
			t.Fatalf("stackless %v: woke %d waiters, want 3", stackless, len(activeAtWake))
		}
		for i, n := range activeAtWake {
			if n != 0 {
				t.Fatalf("stackless %v: waiter %d woke with Active() = %d, want 0 (stale stream set)", stackless, wakeOrder[i], n)
			}
		}
		for i, v := range wakeOrder {
			if v != i {
				t.Fatalf("stackless %v: wake order %v, want completion (arrival) order", stackless, wakeOrder)
			}
		}
		if stackless == [3]bool{} {
			firedWithServe = k.FiredEvents()
		} else if got := k.FiredEvents(); got != firedWithServe {
			t.Fatalf("stackless %v: %d events fired, %d with every waiter in Serve", stackless, got, firedWithServe)
		}
	}
}

// TestBackToBackCompletions drains two cap-bound streams one nanosecond
// apart: the first completion must wake only its own stream, reschedule the
// survivor, and leave Active() consistent at each wake.
func TestBackToBackCompletions(t *testing.T) {
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "d", Curve: Flat(10), PerStreamCap: 1})
	type wake struct {
		at     time.Duration
		active int
	}
	var wakes []wake
	serve := func(demand float64) {
		k.Go("w", func(p *sim.Proc) {
			s.Serve(p, demand, 1)
			wakes = append(wakes, wake{p.Now(), s.Active()})
		})
	}
	serve(1.0)
	serve(1.0 + 100e-9) // drains 100ns after the first, via a separate event
	k.Run()
	if len(wakes) != 2 {
		t.Fatalf("woke %d waiters, want 2", len(wakes))
	}
	if wakes[0].active != 1 {
		t.Fatalf("first waiter woke with Active() = %d, want 1 (second stream still in service)", wakes[0].active)
	}
	if wakes[1].active != 0 {
		t.Fatalf("second waiter woke with Active() = %d, want 0", wakes[1].active)
	}
	if d := wakes[1].at - wakes[0].at; d <= 0 || d > time.Microsecond {
		t.Fatalf("completions %v apart, want back-to-back within 1µs", d)
	}
	// A re-serve issued immediately on wake-up must observe a fresh server.
	reserved := false
	k2 := sim.NewKernel()
	s2 := NewServer(k2, Config{Name: "d2", Curve: Flat(1)})
	k2.Go("w", func(p *sim.Proc) {
		s2.Serve(p, 1, 1)
		if s2.Active() != 0 {
			t.Errorf("Active() = %d on wake, want 0", s2.Active())
		}
		s2.Serve(p, 1, 1) // same-instant re-arrival
		reserved = true
		if p.Now() != 2*time.Second {
			t.Errorf("re-serve completed at %v, want 2s", p.Now())
		}
	})
	k2.Run()
	if !reserved {
		t.Fatal("same-instant re-serve never completed")
	}
}

// TestUnreachableCompletionNeverFires: a server slowed by 1e300 would take
// 1e300 s to serve anything, past the end of virtual time. Its completion
// delay used to overflow int64 and clamp to zero, so the server fired
// completions that drained nothing at a frozen clock, forever; the delay now
// saturates at the last instant, which the kernel never reaches, so Run
// returns with the stream still in service.
func TestUnreachableCompletionNeverFires(t *testing.T) {
	k := sim.NewKernel()
	s := NewServer(k, Config{Name: "disk", Curve: Flat(100)})
	s.SetRateScale(1e-300)
	woke := false
	w := &startWaiter{s: s, demand: 100, woke: func(*sim.Proc) { woke = true }}
	k.GoStepper(&w.proc, "w", w)
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Run()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run has not returned after 10s: the server fires completions at a frozen clock")
	}
	if woke || s.Active() != 1 {
		t.Fatalf("woke %v, Active() = %d: want the stream still in service", woke, s.Active())
	}
	if fired := k.FiredEvents(); fired != 1 {
		t.Fatalf("%d events fired, want only the waiter's start", fired)
	}
}

// TestServeCycleAllocFree pins what serving costs in heap objects. Warm, a
// cycle of 64 streams arriving and draining — two weight classes, several
// drains per completion — allocates nothing: streams are held by value in a
// table that already has room. A fresh server reaching a peak of k streams
// pays for the server, its completion callback and the table's doublings
// (which carry the curve memo with them): at most ⌈log₂ k⌉ + 3 objects. With
// a stream struct per Start (in blocks), a growing pointer list and a curve
// memo of its own, the same 64-stream server took 30.
func TestServeCycleAllocFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := sim.NewKernel()
	curve := func(n int) float64 { return 100 * math.Pow(float64(n), -0.3) }
	s := NewServer(k, Config{Name: "hdd", Curve: curve, OnActiveChange: func(int) {}})
	const streams, warm, measured = 64, 10, 100
	waiters := make([]cycleWaiter, streams)
	cycles, stop := 0, false
	var before, after runtime.MemStats
	for i := range waiters {
		w := &waiters[i]
		w.s, w.demand, w.weight, w.stop = s, float64(1+i%4), 1, &stop
		if i%3 == 0 {
			w.weight = 0.85
		}
		if i == 0 {
			// Waiter 0, the slowest stream, counts the cycles; the rest
			// re-serve as they drain until it calls time.
			w.demand, w.weight = 4, 0.5
			w.cycle = func() {
				switch cycles++; cycles {
				case warm:
					runtime.ReadMemStats(&before)
				case warm + measured:
					runtime.ReadMemStats(&after)
					stop = true
				}
			}
		}
		k.GoStepper(&w.proc, "w", w)
	}
	k.Run()
	if cycles != warm+measured || s.Active() != 0 {
		t.Fatalf("waiter 0 served %d cycles, %d streams left: want %d and none", cycles, s.Active(), warm+measured)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d warm cycles of %d streams allocated %d objects, want 0", measured, streams, n)
	}

	procs := make([]sim.Proc, 512)
	for _, peak := range []int{1, 3, 64, 512} {
		budget := 3
		for 1<<(budget-3) < peak {
			budget++
		}
		allocs := testing.AllocsPerRun(20, func() {
			s := NewServer(k, Config{Name: "hdd", Curve: curve})
			for i := range peak {
				s.Start(&procs[i], float64(1+i%7), 1)
			}
		})
		if allocs > float64(budget) {
			t.Errorf("a fresh server reaching %d streams allocated %v objects, want at most ⌈log₂ k⌉ + 3 = %d", peak, allocs, budget)
		}
	}
}

// cycleWaiter is a stackless process that serves streams of demand at weight
// back to back until *stop, calling cycle (if set) at each drain.
type cycleWaiter struct {
	proc           sim.Proc
	s              *Server
	demand, weight float64
	started        bool
	stop           *bool
	cycle          func()
}

func (w *cycleWaiter) Step() {
	if w.started && w.cycle != nil {
		w.cycle()
	}
	w.started = true
	if !*w.stop {
		w.s.Start(&w.proc, w.demand, w.weight)
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own: allocation pins skip under it.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
