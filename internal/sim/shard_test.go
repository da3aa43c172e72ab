package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// windowedModel builds an engine-shaped workload: shard-local busywork plus
// cross-shard messages routed through send (which must respect the
// lookahead). Each shard keeps its own log so concurrent windows never
// share a slice. Returns per-shard logs.
func windowedModel(ks []*Kernel, send func(from, dst int, d time.Duration, fn func())) []*[]string {
	logs := make([]*[]string, len(ks))
	for i := range logs {
		logs[i] = new([]string)
	}
	rec := func(i int, what string) {
		*logs[i] = append(*logs[i], fmt.Sprintf("%v %s", ks[i].Now(), what))
	}
	inbox := make([]*Mailbox[string], len(ks))
	for i := range ks {
		inbox[i] = NewMailbox[string](ks[i])
	}
	for i := range ks {
		ks[i].Go(fmt.Sprintf("worker-%d", i), func(p *Proc) {
			for round := 0; round < 6; round++ {
				// Shard-local busywork: a burst of same-instant and
				// near-future events.
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(j) * 100 * time.Microsecond)
					rec(i, fmt.Sprintf("work r%d j%d", round, j))
				}
				if i != 0 {
					// Report to shard 0 with a latency covering the
					// lookahead.
					msg := fmt.Sprintf("from-%d r%d", i, round)
					send(i, 0, 2*time.Millisecond, func() { inbox[0].Put(msg) })
				}
				p.Sleep(5 * time.Millisecond)
			}
		})
	}
	ks[0].Go("collector", func(p *Proc) {
		total := 6 * (len(ks) - 1) // every non-zero shard reports once per round
		for n := 0; n < total; n++ {
			m := inbox[0].Recv(p)
			rec(0, "recv "+m)
		}
	})
	return logs
}

// TestShardSetWindowedDeterministic: two identical runs produce identical
// per-shard logs.
func TestShardSetWindowedDeterministic(t *testing.T) {
	run := func() [][]string {
		ss := NewShardSet(4, time.Millisecond)
		ks := []*Kernel{ss.Shard(0), ss.Shard(1), ss.Shard(2), ss.Shard(3)}
		logs := windowedModel(ks, ss.Send)
		ss.RunWindows()
		out := make([][]string, len(logs))
		for i, l := range logs {
			out[i] = *l
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("windowed runs diverged:\n a %v\n b %v", a, b)
	}
	if len(a[0]) == 0 || len(a[1]) == 0 {
		t.Fatalf("windowed model produced empty logs: %v", a)
	}
}

// TestShardSetMatchesOneKernel: when cross-shard traffic respects the
// lookahead and lands at distinct instants, the sharded run's per-shard logs
// equal those of the same model built on one kernel (which routes the same
// sends by direct scheduling).
func TestShardSetMatchesOneKernel(t *testing.T) {
	collect := func(logs []*[]string) [][]string {
		out := make([][]string, len(logs))
		for i, l := range logs {
			out[i] = *l
		}
		return out
	}
	k := NewKernel()
	logs := windowedModel([]*Kernel{k, k, k}, func(from, dst int, d time.Duration, fn func()) {
		k.After(d, fn)
	})
	k.Run()
	single := collect(logs)

	ss := NewShardSet(3, time.Millisecond)
	logs = windowedModel([]*Kernel{ss.Shard(0), ss.Shard(1), ss.Shard(2)}, ss.Send)
	ss.RunWindows()
	sharded := collect(logs)

	if !reflect.DeepEqual(sharded, single) {
		t.Fatalf("sharded run diverged from one kernel:\n sharded %v\n single %v", sharded, single)
	}
	if len(single[0]) == 0 || len(single[1]) == 0 {
		t.Fatalf("model produced empty logs: %v", single)
	}
}

// TestShardSetPanicReachesCaller: a panic on any shard — the one running
// inline on the coordinator, or one on a window goroutine — surfaces in
// RunWindows' caller with its value intact, after the window barrier and the
// shutdown of every shard: parked processes on the other shards are unwound
// and no goroutine outlives the run.
func TestShardSetPanicReachesCaller(t *testing.T) {
	for faulty := 0; faulty < 3; faulty++ {
		base := runtime.NumGoroutine()
		ss := NewShardSet(3, time.Millisecond)
		cleaned := make([]bool, 3)
		for i := 0; i < 3; i++ {
			leakModel(ss.Shard(i))
			ss.Shard(i).Go("bystander", func(p *Proc) {
				defer func() { cleaned[i] = true }()
				p.Park()
			})
		}
		// All three shards are active in the window the panic fires in.
		ss.Shard(faulty).Go("faulty", func(p *Proc) {
			p.Sleep(2 * time.Millisecond)
			panic("boom")
		})
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("shard %d: recovered %v, want boom", faulty, r)
				}
			}()
			ss.RunWindows()
			t.Errorf("shard %d: RunWindows returned normally", faulty)
		}()
		for i, ok := range cleaned {
			if !ok {
				t.Errorf("shard %d panicked: bystander on shard %d was not unwound", faulty, i)
			}
		}
		if !waitGoroutines(base) {
			t.Errorf("shard %d panicked: %d goroutines left, started with %d", faulty, runtime.NumGoroutine(), base)
		}
	}
}

// TestShardSetSameInstantMergeOrder: messages from different shards
// arriving at the same nanosecond are delivered in (time, source shard,
// emission) order, whatever order the sending windows ran in.
func TestShardSetSameInstantMergeOrder(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		ss := NewShardSet(3, time.Millisecond)
		var got []string
		for src := 1; src <= 2; src++ {
			ss.Shard(src).Go(fmt.Sprintf("src-%d", src), func(p *Proc) {
				// Both shards send two messages at the same virtual
				// instant, arriving at the same nanosecond on shard 0.
				for n := 0; n < 2; n++ {
					msg := fmt.Sprintf("src%d-msg%d", src, n)
					ss.Send(src, 0, 2*time.Millisecond, func() {
						got = append(got, msg)
					})
				}
			})
		}
		ss.RunWindows()
		want := []string{"src1-msg0", "src1-msg1", "src2-msg0", "src2-msg1"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: same-instant merge order %v, want %v", trial, got, want)
		}
	}
}

// TestRunUntilBoundary: runUntil fires strictly-before-limit events only,
// leaves the clock at the last fired event, and resumes cleanly across
// windows.
func TestRunUntilBoundary(t *testing.T) {
	k := NewKernel()
	var got []string
	for _, d := range []time.Duration{1, 2, 3, 4} {
		k.At(d*time.Millisecond, func() {
			got = append(got, fmt.Sprintf("%d", d))
		})
	}
	k.runUntil(3 * time.Millisecond)
	if want := []string{"1", "2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("first window fired %v, want %v", got, want)
	}
	if k.Now() != 2*time.Millisecond {
		t.Fatalf("clock at %v after first window, want 2ms", k.Now())
	}
	if k.PendingEvents() != 2 {
		t.Fatalf("%d events queued after the first window, want the 2 at/after the limit", k.PendingEvents())
	}
	k.runUntil(Never)
	if want := []string{"1", "2", "3", "4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after second window fired %v, want %v", got, want)
	}
}

// TestShardSetEndOfTime: an event at the last instant of virtual time — where
// psres parks a completion no rate can reach — never fires, on a shard as on
// a lone kernel. The window after the last real event used to start there,
// overflow its end and wake no shard, and RunWindows indexed an empty list.
func TestShardSetEndOfTime(t *testing.T) {
	ss := NewShardSet(2, time.Millisecond)
	fired := 0
	ss.Shard(0).At(time.Millisecond, func() { fired++ })
	ss.Shard(1).At(Never, func() { fired += 10 })
	ss.Shard(1).At(Never-time.Microsecond, func() { fired += 100 })
	ss.RunWindows()
	if fired != 101 {
		t.Fatalf("fired = %d, want 101: the event before the end of time only", fired)
	}
}

// TestRunUntilParksProcesses: a process sleeping past the window limit
// stays parked between windows and resumes in a later window.
func TestRunUntilParksProcesses(t *testing.T) {
	k := NewKernel()
	var got []string
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, fmt.Sprintf("%v wake %d", k.Now(), i))
			p.Sleep(10 * time.Millisecond)
		}
	})
	for w := time.Duration(1); len(got) < 3 && w < 100; w++ {
		k.runUntil(w * 5 * time.Millisecond)
	}
	want := []string{"0s wake 0", "10ms wake 1", "20ms wake 2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Drain and shut down so the sleeper goroutine exits.
	k.Run()
}

// TestStepPrimitives: peek/runUntil step through ring and heap events in
// (time, seq) order and skip cancelled corpses.
func TestStepPrimitives(t *testing.T) {
	k := NewKernel()
	var got []string
	k.At(0, func() { got = append(got, "ring") }) // same-instant: ring lane
	k.At(2*time.Millisecond, func() { got = append(got, "heap") })
	dead := k.At(1*time.Millisecond, func() { got = append(got, "cancelled") })
	dead.Cancel()
	if at, ok := k.peekNextEventTime(); !ok || at != 0 {
		t.Fatalf("peek = %v %v, want 0 true", at, ok)
	}
	k.runUntil(time.Millisecond)
	if want := []string{"ring"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("first step fired %v, want %v", got, want)
	}
	if at, ok := k.peekNextEventTime(); !ok || at != 2*time.Millisecond {
		t.Fatalf("peek after cancel-skip = %v %v, want 2ms true", at, ok)
	}
	k.runUntil(Never)
	if _, ok := k.peekNextEventTime(); ok {
		t.Fatal("queue should be drained")
	}
	if want := []string{"ring", "heap"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestShardSendGuards: Send panics outside RunWindows and on delays below
// the lookahead.
func TestShardSendGuards(t *testing.T) {
	ss := NewShardSet(2, time.Millisecond)
	mustPanic := func(what string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", what)
			}
		}()
		fn()
	}
	mustPanic("send outside RunWindows", func() {
		ss.Send(0, 1, 2*time.Millisecond, func() {})
	})
	ss.Shard(0).Go("violator", func(p *Proc) {
		mustPanic("send below lookahead", func() {
			ss.Send(0, 1, time.Microsecond, func() {})
		})
	})
	ss.RunWindows()
}
