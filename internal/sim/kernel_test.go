package sim

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30*time.Millisecond, func() { got = append(got, 3) })
	k.At(10*time.Millisecond, func() { got = append(got, 1) })
	k.At(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("Now() = %v, want 30ms", k.Now())
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(time.Second, func() { fired = true })
	k.At(500*time.Millisecond, func() { e.Cancel() })
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(0, func() {})
	})
	k.Run()
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wake time.Duration
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Second)
		wake = p.Now()
	})
	k.Run()
	if wake != 42*time.Second {
		t.Fatalf("woke at %v, want 42s", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * time.Second)
		trace = append(trace, "a2")
	})
	k.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * time.Second)
		trace = append(trace, "b1")
		p.Sleep(2 * time.Second)
		trace = append(trace, "b3")
	})
	k.Run()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

// TestMailboxWakesReceiversInWaitOrder: three receivers begin waiting in the
// reverse of their creation order, and each message wakes the one that has
// waited longest, at the instant the message lands.
func TestMailboxWakesReceiversInWaitOrder(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k)
	type wake struct {
		receiver, msg int
		at            time.Duration
	}
	var got []wake
	for i := 0; i < 3; i++ {
		k.Go("recv", func(p *Proc) {
			p.Sleep(time.Duration(3-i) * time.Millisecond)
			msg := mb.Recv(p)
			got = append(got, wake{i, msg, p.Now()})
		})
	}
	for n := 1; n <= 3; n++ {
		k.At(time.Duration(n)*time.Second, func() { mb.Send(0, n) })
	}
	k.Run()
	want := []wake{{2, 1, time.Second}, {1, 2, 2 * time.Second}, {0, 3, 3 * time.Second}}
	if !slices.Equal(got, want) {
		t.Fatalf("wakes = %v, want %v", got, want)
	}
}

func TestShutdownKillsParkedProcs(t *testing.T) {
	k := NewKernel()
	reached := false
	k.Go("stuck", func(p *Proc) {
		p.Park() // never woken
		reached = true
	})
	k.Run()
	if reached {
		t.Fatal("process ran past a park nothing woke")
	}
	if len(k.coros) != 0 {
		t.Fatalf("%d coroutines leaked", len(k.coros))
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	var fired []int
	k.At(1*time.Second, func() { fired = append(fired, 1); k.Stop() })
	k.At(2*time.Second, func() { fired = append(fired, 2) })
	k.Run()
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
}

func TestMailbox(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k)
	var got []int
	var at []time.Duration
	k.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Recv(p))
			at = append(at, p.Now())
		}
	})
	k.At(time.Second, func() { mb.Send(time.Millisecond, 7) })
	k.At(2*time.Second, func() {
		mb.Send(0, 8)
		mb.Send(0, 9)
	})
	k.Run()
	if got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Fatalf("got %v, want [7 8 9]", got)
	}
	if at[0] != time.Second+time.Millisecond {
		t.Fatalf("first delivery at %v", at[0])
	}
}

func TestMailboxTryRecv(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[string](k)
	k.At(0, func() {
		if _, ok := mb.TryRecv(); ok {
			t.Error("TryRecv on empty mailbox returned ok")
		}
		mb.Send(0, "x")
	})
	k.At(time.Second, func() {
		v, ok := mb.TryRecv()
		if !ok || v != "x" {
			t.Errorf("TryRecv = %q, %v", v, ok)
		}
	})
	k.Run()
}

// TestDeterminism: a randomized workload of sleeps produces an identical
// trace across runs with the same seed.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		var trace []time.Duration
		for i := 0; i < 20; i++ {
			n := 1 + rng.Intn(5)
			k.Go("p", func(p *Proc) {
				for j := 0; j < n; j++ {
					p.Sleep(time.Duration(rng.Intn(1000)) * time.Millisecond)
					trace = append(trace, p.Now())
				}
			})
		}
		k.Run()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: virtual time never decreases across an arbitrary set of events.
func TestTimeMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			k.At(time.Duration(d)*time.Millisecond, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a process that sleeps a sequence of delays wakes at the exact
// prefix sums.
func TestSleepPrefixSumProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		ok := true
		k.Go("p", func(p *Proc) {
			var sum time.Duration
			for _, d := range delays {
				dd := time.Duration(d) * time.Microsecond
				p.Sleep(dd)
				sum += dd
				if p.Now() != sum {
					ok = false
				}
			}
		})
		k.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNestedSpawn(t *testing.T) {
	k := NewKernel()
	depth := 0
	var spawn func(p *Proc, d int)
	spawn = func(p *Proc, d int) {
		if d > depth {
			depth = d
		}
		if d == 5 {
			return
		}
		p.Sleep(time.Second)
		k.Go("child", func(c *Proc) { spawn(c, d+1) })
	}
	k.Go("root", func(p *Proc) { spawn(p, 0) })
	k.Run()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
}

func TestMailboxFIFOAcrossSameInstant(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k)
	var got []int
	k.Go("recv", func(p *Proc) {
		for i := 0; i < 4; i++ {
			got = append(got, mb.Recv(p))
		}
	})
	k.At(time.Second, func() {
		for i := 1; i <= 4; i++ {
			mb.Send(0, i)
		}
	})
	k.Run()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v", got)
		}
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

// TestFIFOKeepsOrderAndArray interleaves pushes and pops so the head index
// moves through the array, drains, and rewinds: values come out in push
// order and, once the array has grown to the deepest backlog, it is reused.
func TestFIFOKeepsOrderAndArray(t *testing.T) {
	var q FIFO[*int]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			v := next
			q.Push(&v)
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := *q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for round := 0; round < 50; round++ {
		push(3)
		pop(2)
		push(2)
		pop(3)
		if q.Len() != 0 || q.head != 0 {
			t.Fatalf("round %d: len %d head %d after draining", round, q.Len(), q.head)
		}
		for _, p := range q.items[:cap(q.items)] {
			if p != nil {
				t.Fatalf("round %d: a popped slot still holds its pointer", round)
			}
		}
	}
	if cap(q.items) > 8 {
		t.Fatalf("array grew to %d for a backlog of at most 3", cap(q.items))
	}
}

// TestMailboxSteadyStateAllocs pins the Send→Recv cycle at no allocation:
// the message waits in the flight queue and the arrival event is the
// mailbox's one bound callback, where Send used to make a closure per
// message; dequeuing with queue = queue[1:] once cost another, the queue
// slice re-grown on every cycle.
func TestMailboxSteadyStateAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	k := NewKernel()
	mb := NewMailbox[int](k)
	sum := 0
	k.Go("recv", func(p *Proc) {
		for {
			sum += mb.Recv(p)
		}
	})
	cycle := func() {
		mb.Send(0, 1)
		k.runUntil(Never)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("Send→Recv allocates %v objects, want 0", allocs)
	}
	if sum != 100+1001 {
		t.Fatalf("received %d messages, want %d", sum, 100+1001)
	}
	k.Stop()
	k.Run()
}

// closureMailbox is the mailbox as it was before the flight queue: every
// message rides its own k.After closure, and lands by waking the
// longest-waiting receiver of its own waiter list.
type closureMailbox struct {
	k       *Kernel
	queue   FIFO[int]
	waiters FIFO[*Proc]
}

func (m *closureMailbox) Send(d time.Duration, msg int) {
	m.k.After(d, func() {
		m.queue.Push(msg)
		if m.waiters.Len() > 0 {
			m.k.Wake(m.waiters.Pop())
		}
	})
}

func (m *closureMailbox) Recv(p *Proc) int {
	for m.queue.Len() == 0 {
		m.waiters.Push(p)
		p.Park()
	}
	return m.queue.Pop()
}

// stepReceiver is a stackless receiver: the TryRecv / StartRecv loop that
// stands where a coroutine loops over Recv.
type stepReceiver struct {
	proc Proc
	mb   *Mailbox[int]
	got  func(msg int)
}

func (r *stepReceiver) Step() {
	for {
		msg, ok := r.mb.TryRecv()
		if !ok {
			r.mb.StartRecv(&r.proc)
			return
		}
		r.got(msg)
	}
}

// TestMailboxMatchesClosureReference drives the mailbox and the closure
// reference with the same random script — bursts of sends at one instant,
// delays from a small set so that arrivals tie, a shorter delay after a longer
// one so that a message overtakes those in flight — and wants every message
// received at the same instant, in the same order and as the same numbered
// event of the run: by a coroutine looping over Recv, and by a stackless
// receiver, several messages landing on one wake included.
func TestMailboxMatchesClosureReference(t *testing.T) {
	type send struct {
		at, d time.Duration
		msg   int
	}
	type recv struct {
		msg   int
		at    time.Duration
		fired uint64
	}
	type mailbox interface {
		Send(time.Duration, int)
		Recv(*Proc) int
	}
	run := func(script []send, mk func(*Kernel) mailbox, stackless bool) ([]recv, uint64) {
		k := NewKernel()
		mb := mk(k)
		var got []recv
		record := func(msg int) { got = append(got, recv{msg, k.Now(), k.FiredEvents()}) }
		if stackless {
			r := &stepReceiver{mb: mb.(*Mailbox[int]), got: record}
			k.GoStepper(&r.proc, "recv", r)
		} else {
			k.Go("recv", func(p *Proc) {
				for {
					record(mb.Recv(p))
				}
			})
		}
		for _, s := range script {
			k.At(s.at, func() { mb.Send(s.d, s.msg) })
		}
		k.Run()
		return got, k.FiredEvents()
	}
	delays := []time.Duration{0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var script []send
		var at, latest time.Duration
		overtakes, ties := 0, 0
		for len(script) < 200 {
			at += time.Duration(rng.Intn(4)) * time.Millisecond // 0: the burst goes on
			d := delays[rng.Intn(len(delays))]
			switch arrive := at + d; {
			case arrive < latest:
				overtakes++
			case arrive == latest:
				ties++
			}
			latest = max(latest, at+d)
			script = append(script, send{at, d, len(script)})
		}
		if overtakes == 0 || ties == 0 {
			t.Fatalf("seed %d: script has %d overtaking sends and %d ties, want both", seed, overtakes, ties)
		}
		want, wantFired := run(script, func(k *Kernel) mailbox {
			return &closureMailbox{k: k}
		}, false)
		if len(want) != len(script) {
			t.Fatalf("seed %d: the reference received %d of %d messages", seed, len(want), len(script))
		}
		shared := 0 // receives on the wake of the receive before
		for i := 1; i < len(want); i++ {
			if want[i].fired == want[i-1].fired {
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("seed %d: no two messages landed on one wake", seed)
		}
		for _, stackless := range []bool{false, true} {
			got, fired := run(script, func(k *Kernel) mailbox { return NewMailbox[int](k) }, stackless)
			if len(got) != len(script) {
				t.Fatalf("seed %d (stackless %v): received %d of %d messages", seed, stackless, len(got), len(script))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d (stackless %v): receive %d = %+v, want %+v", seed, stackless, i, got[i], want[i])
				}
			}
			if fired != wantFired {
				t.Fatalf("seed %d (stackless %v): %d events fired, want %d", seed, stackless, fired, wantFired)
			}
		}
	}
}
