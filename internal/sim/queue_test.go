package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHeapPopsInOrderProperty is the event-queue ordering property: under
// random interleavings of inserts and cancellations, survivors fire in
// exactly (time, seq) order — the order a stable sort over the schedule
// sequence would produce.
func TestHeapPopsInOrderProperty(t *testing.T) {
	type ref struct {
		at  time.Duration
		ord int // schedule order = seq order
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var want []ref
		var got []int
		events := make([]Event, 0, 512)
		orders := make([]int, 0, 512)
		n := 64 + rng.Intn(512)
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(1000)) * time.Microsecond
			ord := i
			events = append(events, k.At(at, func() { got = append(got, ord) }))
			orders = append(orders, ord)
			want = append(want, ref{at: at, ord: ord})
		}
		// Cancel a random subset up front (the lazy-cancel path).
		alive := make(map[int]bool, n)
		for i := range want {
			alive[want[i].ord] = true
		}
		for i, ev := range events {
			if rng.Intn(3) == 0 {
				ev.Cancel()
				alive[orders[i]] = false
			}
		}
		// And cancel a few more from inside the run, exercising in-flight
		// cancellation of both already-fired and still-pending events.
		for i := 0; i < 32; i++ {
			victim := events[rng.Intn(len(events))]
			at := time.Duration(rng.Intn(1000)) * time.Microsecond
			k.At(at, func() { victim.Cancel() })
		}
		// Survivors must fire in (time, seq) order. Build the expectation
		// from the reference list, minus everything cancelled up front.
		// In-run cancellations are checked for order only, not membership:
		// whether a victim fires depends on whether its cancel event sorts
		// before it, which the reference model would have to replicate —
		// order is the property under test.
		k.Run()
		var wantAlive []ref
		for _, r := range want {
			if alive[r.ord] {
				wantAlive = append(wantAlive, r)
			}
		}
		sort.SliceStable(wantAlive, func(i, j int) bool {
			if wantAlive[i].at != wantAlive[j].at {
				return wantAlive[i].at < wantAlive[j].at
			}
			return wantAlive[i].ord < wantAlive[j].ord
		})
		// got may be missing in-run-cancelled entries; verify it is a
		// subsequence-preserving order match: filter wantAlive to the set
		// that actually fired and require exact equality.
		fired := make(map[int]bool, len(got))
		for _, o := range got {
			fired[o] = true
		}
		var wantFired []int
		for _, r := range wantAlive {
			if fired[r.ord] {
				wantFired = append(wantFired, r.ord)
			}
		}
		if len(wantFired) != len(got) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(got), len(wantFired))
		}
		for i := range got {
			if got[i] != wantFired[i] {
				t.Fatalf("seed %d: fire order diverges at %d: got %d, want %d", seed, i, got[i], wantFired[i])
			}
		}
	}
}

// TestEvery fires a periodic event and checks period, phase, and that
// cancelling the handle ends the series.
func TestEvery(t *testing.T) {
	k := NewKernel()
	var at []time.Duration
	var tick Event
	tick = k.Every(10*time.Millisecond, func() {
		at = append(at, k.Now())
		if len(at) == 5 {
			tick.Cancel()
		}
	})
	if !tick.Active() {
		t.Fatal("fresh Every handle not active")
	}
	k.Run()
	if len(at) != 5 {
		t.Fatalf("fired %d times, want 5", len(at))
	}
	for i, got := range at {
		if want := time.Duration(i+1) * 10 * time.Millisecond; got != want {
			t.Fatalf("tick %d at %v, want %v", i, got, want)
		}
	}
	if tick.Active() {
		t.Fatal("cancelled Every handle still active")
	}
}

// TestEveryOrdersAfterSameTickWork verifies the documented ordering: work
// scheduled by the tick callback for the next tick instant fires before the
// next tick itself (the periodic event reschedules after running fn).
func TestEveryOrdersAfterSameTickWork(t *testing.T) {
	k := NewKernel()
	var order []string
	ticks := 0
	var tick Event
	tick = k.Every(time.Second, func() {
		ticks++
		order = append(order, "tick")
		if ticks == 2 {
			tick.Cancel()
			return
		}
		k.After(time.Second, func() { order = append(order, "work") })
	})
	k.Run()
	want := []string{"tick", "work", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestRescheduleMatchesCancelPlusAt runs the same deadline-pushback workload
// through Reschedule on one kernel and cancel+At on another; firing sequences
// must be identical, because Reschedule is defined as that exact ordering.
func TestRescheduleMatchesCancelPlusAt(t *testing.T) {
	type run struct {
		fired []time.Duration
	}
	workload := func(resched bool) run {
		var r run
		k := NewKernel()
		record := func() { r.fired = append(r.fired, k.Now()) }
		deadline := k.At(50*time.Millisecond, record)
		for i := 1; i <= 5; i++ {
			k.At(time.Duration(i)*10*time.Millisecond, func() {
				if resched {
					deadline.Reschedule(k.Now() + 50*time.Millisecond)
				} else {
					deadline.Cancel()
					deadline = k.At(k.Now()+50*time.Millisecond, record)
				}
				// A same-instant decoy: ordering between the deadline and
				// other events at its timestamp must match too.
				k.At(k.Now()+50*time.Millisecond, func() { r.fired = append(r.fired, -k.Now()) })
			})
		}
		k.Run()
		return r
	}
	a, b := workload(true), workload(false)
	if len(a.fired) != len(b.fired) {
		t.Fatalf("fired %d vs %d events", len(a.fired), len(b.fired))
	}
	for i := range a.fired {
		if a.fired[i] != b.fired[i] {
			t.Fatalf("sequence diverges at %d: %v vs %v", i, a.fired, b.fired)
		}
	}
}

// TestHandleInertAfterRecycle checks generation fencing: once an event fires
// and its struct is recycled into a new event, the stale handle must be
// inert — Cancel through it must not kill the new occupant.
func TestHandleInertAfterRecycle(t *testing.T) {
	k := NewKernel()
	var stale Event
	secondFired, thirdFired := false, false
	stale = k.At(time.Millisecond, func() {})
	k.At(2*time.Millisecond, func() {
		if stale.Active() {
			t.Error("fired event's handle still active")
		}
		// Both fired structs are on the free list, so these two new events
		// reuse them; the stale handle now points at one of the new events'
		// structs with an older generation. Cancelling through it must not
		// kill the new occupant.
		k.At(3*time.Millisecond, func() { secondFired = true })
		k.At(3*time.Millisecond, func() { thirdFired = true })
		stale.Cancel() // must be a no-op
	})
	k.Run()
	if !secondFired || !thirdFired {
		t.Fatalf("stale handle cancelled a recycled event (second=%v third=%v)", secondFired, thirdFired)
	}

	// Event structs come in blocks of eventBlock: fire more than two blocks'
	// worth, reuse every struct for a new event and cancel through every
	// stale handle, those past a block boundary included.
	k = NewKernel()
	const n = 2*eventBlock + 1
	olds := make([]Event, n+1)
	for i := range n {
		olds[i] = k.At(time.Millisecond, func() {})
	}
	fired := 0
	olds[n] = k.At(2*time.Millisecond, func() {
		recycled := map[*event]bool{}
		for i, old := range olds {
			if old.Active() {
				t.Errorf("fired event %d's handle still active", i)
			}
			recycled[old.e] = true
		}
		for i := range n + 1 {
			if ev := k.At(3*time.Millisecond, func() { fired++ }); !recycled[ev.e] {
				t.Errorf("new event %d did not reuse a fired event's struct", i)
			}
		}
		for _, old := range olds {
			old.Cancel() // must be a no-op
		}
	})
	k.Run()
	if fired != n+1 {
		t.Fatalf("%d of %d new events fired: a stale handle cancelled one", fired, n+1)
	}
}

// TestMassCancel checks that cancelling most of a large queue leaves the
// rest intact: live events still fire in order and PendingEvents tracks the
// live count.
func TestMassCancel(t *testing.T) {
	k := NewKernel()
	var events []Event
	var got []int
	for i := 0; i < 1024; i++ {
		events = append(events, k.At(time.Duration(i+1)*time.Millisecond, func() { got = append(got, i) }))
	}
	for i, ev := range events {
		if i%8 != 0 {
			ev.Cancel()
		}
	}
	if want := 1024 / 8; k.PendingEvents() != want {
		t.Fatalf("PendingEvents = %d after mass cancel, want %d", k.PendingEvents(), want)
	}
	k.Run()
	if len(got) != 1024/8 {
		t.Fatalf("fired %d, want %d", len(got), 1024/8)
	}
	for j, i := range got {
		if i != j*8 {
			t.Fatalf("fire order wrong at %d: got %d", j, i)
		}
	}
}

// TestShutdownKillOrderDeterministic checks that still-parked processes are
// killed in creation order at shutdown, so shutdown-time side effects
// (deferred cleanups) can never reorder between runs.
func TestShutdownKillOrderDeterministic(t *testing.T) {
	run := func() []int {
		k := NewKernel()
		var killed []int
		for i := 0; i < 16; i++ {
			k.Go("parked", func(p *Proc) {
				// The defer observes the kill unwinding without recovering,
				// recording the order shutdown reached this process.
				defer func() { killed = append(killed, i) }()
				p.Park() // never woken
			})
		}
		k.Run()
		return killed
	}
	first := run()
	if len(first) != 16 {
		t.Fatalf("killed %d procs, want 16", len(first))
	}
	for i, v := range first {
		if v != i {
			t.Fatalf("kill order %v is not creation order", first)
		}
	}
}

// TestParkWake checks the single-waiter fast path: Wake resumes a parked
// process at the current instant, after already-queued same-instant events.
func TestParkWake(t *testing.T) {
	k := NewKernel()
	var order []string
	var p *Proc
	p = k.Go("sleeper", func(p *Proc) {
		p.Park()
		order = append(order, "woken")
	})
	k.At(time.Second, func() {
		k.Wake(p)
		k.At(k.Now(), func() { order = append(order, "sibling") })
	})
	k.Run()
	if len(order) != 2 || order[0] != "woken" || order[1] != "sibling" {
		t.Fatalf("order = %v, want [woken sibling]", order)
	}
}

// TestFiredEvents checks the event counter excludes cancelled events.
func TestFiredEvents(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 10; i++ {
		e := k.At(time.Duration(i+1)*time.Millisecond, func() {})
		if i%2 == 1 {
			e.Cancel()
		}
	}
	k.Run()
	if k.FiredEvents() != 5 {
		t.Fatalf("FiredEvents = %d, want 5", k.FiredEvents())
	}
}
