package sim

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
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
// A queue that never drains shifts its values down instead of growing, and
// leaves no pointer behind in the slots it vacates.
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
	push(3)
	for range 10_000 {
		push(1)
		pop(1)
	}
	if cap(q.items) > 8 {
		t.Fatalf("a queue that never drained grew its array to %d for a backlog of 4", cap(q.items))
	}
	for i, p := range q.items[:cap(q.items)] {
		if (i < q.head || i >= len(q.items)) && p != nil {
			t.Fatalf("slot %d, outside the queue, still holds its pointer", i)
		}
	}
	pop(3)
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

// TestLargeMessageSendAllocFree: a message type past 128 bytes — the engine's
// completions carry a task's metrics — costs nothing to send either. Send's
// overtaking closure would capture it, and a captured value that large moves
// to the heap as the function holding the closure is entered, whichever
// branch runs: with the closure inline, every Send allocated one object.
func TestLargeMessageSendAllocFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	type large struct {
		seq  int
		body [31]int64
	}
	k := NewKernel()
	mb := NewMailbox[large](k)
	n := 0
	cycle := func() {
		n++
		mb.Send(time.Millisecond, large{seq: n})
		k.Run()
		if msg, ok := mb.TryRecv(); !ok || msg.seq != n {
			t.Fatalf("received message %d (%v), want %d", msg.seq, ok, n)
		}
	}
	for range 100 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("Send→Run→TryRecv of a %d-byte message allocates %v objects, want 0", unsafe.Sizeof(large{}), allocs)
	}
}

// TestReleasedMailboxBuffers: a mailbox with a message in flight keeps its
// arrays; once idle it gives them up, and a mailbox that reuses them, on a
// kernel that reuses the first one's event storage, takes a burst as large as
// the first one's without allocating.
func TestReleasedMailboxBuffers(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const burst = 100
	k := NewKernel()
	mb := NewMailbox[int](k)
	for i := range burst {
		mb.Send(time.Millisecond, i)
	}
	if b := mb.Release(); b.queue != nil || b.flight != nil || mb.flight.Len() != burst {
		t.Fatalf("a mailbox with %d messages in flight released its arrays", burst)
	}
	k.Run()
	for _, ok := mb.TryRecv(); ok; _, ok = mb.TryRecv() {
	}
	b := mb.Release()
	if cap(b.queue) < burst || cap(b.flight) < burst || mb.queue.items != nil {
		t.Fatalf("an idle mailbox released arrays of %d and %d for a burst of %d", cap(b.queue), cap(b.flight), burst)
	}
	warm := NewKernel()
	warm.Reuse(k.Release())
	next := NewMailbox[int](warm)
	next.Reuse(b)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range burst {
		next.Send(time.Millisecond, i)
	}
	warm.Run()
	for _, ok := next.TryRecv(); ok; _, ok = next.TryRecv() {
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("a burst of %d on released arrays allocated %v objects, want 0", burst, allocs)
	}
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

// TestSameInstantSendsShareOneDelivery: sends made at one instant with one
// positive delay ride one arrival event and land in send order, an older
// delivery pending or not. A send due at a later instant opens a new
// delivery, and one overtaking a message in flight keeps an event of its own,
// and so do a send due with the newest delivery but made at another instant
// and one without delay.
func TestSameInstantSendsShareOneDelivery(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k)
	type recv struct {
		msg int
		at  time.Duration
	}
	var got []recv
	r := &stepReceiver{mb: mb, got: func(msg int) { got = append(got, recv{msg, k.Now()}) }}
	k.GoStepper(&r.proc, "recv", r)
	k.Run() // the receiver's first step: it waits
	pending := func(want int, what string) {
		t.Helper()
		if n := k.PendingEvents(); n != want {
			t.Fatalf("after %s: %d events pending, want %d", what, n, want)
		}
	}
	const ms = time.Millisecond
	start := k.FiredEvents()
	// The callbacks at 1.001 s and 1.004 s are pending until they fire.
	k.At(time.Second, func() {
		for i := range 5 {
			mb.Send(ms, i)
		}
		pending(3, "five sends due at one instant")
		mb.Send(3*ms, 5)
		pending(4, "a send due later")
		mb.Send(2*ms, 6)
		pending(5, "an overtaking send")
		mb.Send(3*ms, 7)
		pending(5, "a send joining the newest delivery behind an older one")
	})
	k.At(time.Second+ms, func() {
		pending(4, "nothing") // the first delivery is due now, after this event
		mb.Send(2*ms, 8)
		pending(5, "a send due with 5 and 7 but made later")
		mb.Send(0, 9)
		pending(6, "a send without delay")
	})
	k.At(time.Second+4*ms, func() {
		for i := 10; i < 13; i++ {
			mb.Send(ms, i)
		}
		pending(1, "three sends due at one instant, nothing else in flight")
	})
	k.Run()
	want := []recv{
		{0, time.Second + ms}, {1, time.Second + ms}, {2, time.Second + ms}, {3, time.Second + ms}, {4, time.Second + ms}, {9, time.Second + ms},
		{6, time.Second + 2*ms},
		{5, time.Second + 3*ms}, {7, time.Second + 3*ms}, {8, time.Second + 3*ms},
		{10, time.Second + 5*ms}, {11, time.Second + 5*ms}, {12, time.Second + 5*ms},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("received %v, want %v", got, want)
	}
	// Three callbacks, six deliveries for thirteen messages, four receiver
	// wakes.
	if fired := k.FiredEvents() - start; fired != 3+6+4 {
		t.Fatalf("%d events fired, want 13", fired)
	}
}

// TestMailboxMatchesClosureReference drives the mailbox and the closure
// reference with the same random script — bursts of sends at one instant,
// delays from a small set so that arrivals tie, a shorter delay after a longer
// one so that a message overtakes those in flight — and wants every message
// received at the same instant and in the same order: by a coroutine looping
// over Recv, and by a stackless receiver, several messages landing on one
// wake included. The mailbox fires fewer events than the reference by
// exactly the sends that joined a pending delivery, which the script
// determines: a send at the instant and with the positive delay of the last
// one admitted to flight. Such a send's own event would have fired among the heap events of its
// arrival instant, before any wake there, so every receive also comes as the
// reference's numbered event less the joined sends due by then.
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
	joins := 0
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
		var joinedAt []time.Duration // arrival instants of the sends that join a delivery
		var sentAt time.Duration
		latest = 0
		for _, s := range script {
			switch arrive := s.at + s.d; {
			case s.d > 0 && arrive == latest && s.at == sentAt:
				joinedAt = append(joinedAt, arrive)
			case arrive >= latest:
				latest, sentAt = arrive, s.at
			}
		}
		joins += len(joinedAt)
		joinedBy := func(at time.Duration) uint64 {
			n := uint64(0)
			for _, j := range joinedAt {
				if j <= at {
					n++
				}
			}
			return n
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
			for i, w := range want {
				if w.fired -= joinedBy(w.at); got[i] != w {
					t.Fatalf("seed %d (stackless %v): receive %d = %+v, want %+v", seed, stackless, i, got[i], w)
				}
			}
			if w := wantFired - uint64(len(joinedAt)); fired != w {
				t.Fatalf("seed %d (stackless %v): %d events fired, want %d", seed, stackless, fired, w)
			}
		}
	}
	if joins < 50 {
		t.Fatalf("the scripts have %d sends joining a pending delivery, want at least one a script", joins)
	}
}
