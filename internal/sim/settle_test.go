package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// logSettler logs its settles and then runs then, if set.
type logSettler struct {
	name string
	log  *[]string
	k    *Kernel
	then func()
}

func (s *logSettler) Settle() {
	*s.log = append(*s.log, fmt.Sprintf("%v settle %s", s.k.Now(), s.name))
	if s.then != nil {
		s.then()
	}
}

// logStepper is a stackless process that logs every resume.
type logStepper struct {
	name string
	log  *[]string
	p    Proc
}

func (w *logStepper) Step() { *w.log = append(*w.log, fmt.Sprintf("%v %s", w.p.Now(), w.name)) }

// TestSettleAfterRingBeforeHeap: the end-of-instant phase runs after every
// ring entry of its instant and before any heap event — one at the same
// instant included — in registration order, once per registration; a settle
// may schedule work at the current instant, which fires before the clock
// moves on.
func TestSettleAfterRingBeforeHeap(t *testing.T) {
	k := NewKernel()
	var log []string
	note := func(s string) func() { return func() { log = append(log, fmt.Sprintf("%v %s", k.Now(), s)) } }
	p := &logStepper{name: "p", log: &log}
	k.GoStepper(&p.p, "p", p)
	a := &logSettler{name: "a", log: &log, k: k}
	b := &logSettler{name: "b", log: &log, k: k}
	k.At(time.Second, func() {
		note("h1")()
		k.Settle(a)
		k.Wake(&p.p) // a ring entry, behind the heap event below
	})
	k.At(time.Second, note("h2"))
	k.At(2*time.Second, func() {
		note("h3")()
		k.Settle(b)
		k.Wake(&p.p)
		k.At(k.Now(), note("r1"))
		k.Settle(a)
	})
	b.then = func() {
		k.Wake(&p.p)
		k.At(k.Now(), note("r2"))
		b.then = nil
	}
	k.At(3*time.Second, note("h4"))
	k.Run()
	want := []string{
		"0s p",
		"1s h1", "1s settle a", "1s h2", "1s p",
		"2s h3", "2s p", "2s r1", "2s settle b", "2s settle a", "2s p", "2s r2",
		"3s h4",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("log\n got %q\nwant %q", log, want)
	}
}

// TestSettleBeforeRunUntilLimit: a window cut off by runUntil's limit settles
// what its last instant left before returning, so the next window's horizon
// (peekNextEventTime) sees what the settle scheduled; settles left by model
// building before the first window run there too.
func TestSettleBeforeRunUntilLimit(t *testing.T) {
	k := NewKernel()
	var log []string
	early := &logSettler{name: "build", log: &log, k: k}
	early.then = func() { k.At(time.Millisecond, func() { log = append(log, "from build") }) }
	k.Settle(early)
	if at, ok := k.peekNextEventTime(); !ok || at != time.Millisecond {
		t.Fatalf("next event after a build-time settle at %v (%v), want 1ms", at, ok)
	}
	s := &logSettler{name: "s", log: &log, k: k}
	s.then = func() { k.At(4*time.Second, func() { log = append(log, "from settle") }) }
	k.At(time.Second, func() { k.Settle(s) })
	k.At(5*time.Second, func() { log = append(log, "late") })
	k.runUntil(3 * time.Second)
	want := []string{"0s settle build", "from build", "1s settle s"}
	if !slices.Equal(log, want) {
		t.Fatalf("after the window\n got %q\nwant %q", log, want)
	}
	if at, ok := k.peekNextEventTime(); !ok || at != 4*time.Second {
		t.Fatalf("next event at %v (%v), want the settle's at 4s", at, ok)
	}
	k.runUntil(Never)
	if want = append(want, "from settle", "late"); !slices.Equal(log, want) {
		t.Fatalf("after the run\n got %q\nwant %q", log, want)
	}
}

// TestStopDropsSettles: a settle pending when Stop ends the run never runs,
// and the stopped kernel still gives its storage back.
func TestStopDropsSettles(t *testing.T) {
	k := NewKernel()
	var log []string
	s := &logSettler{name: "s", log: &log, k: k}
	k.At(time.Second, func() {
		k.Settle(s)
		k.Stop()
	})
	k.Run()
	if len(log) != 0 {
		t.Fatalf("a stopped run settled: %q", log)
	}
	if st := k.Release(); cap(st.settles) == 0 || len(st.settles) != 0 {
		t.Fatalf("stopped kernel released a settle list of len %d cap %d, want empty with room", len(st.settles), cap(st.settles))
	}
}

// TestRingOrderMatchesReference: in seeded same-instant histories of Wake,
// At(now), At(later), Cancel and Reschedule (to now or later), run beside
// older heap events at the same instant, everything fires in (time, seq) order — seq taken at the call, and afresh at a
// Reschedule — exactly as a sorted list of the same calls says, and
// PendingEvents tracks the live count.
func TestRingOrderMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		type entry struct {
			at   time.Duration
			seq  int
			name string
			dead bool
		}
		var ref []*entry
		var got []string
		procs := make([]logStepper, 4)
		for i := range procs {
			procs[i] = logStepper{name: fmt.Sprintf("p%d", i), log: &got}
			k.GoStepper(&procs[i].p, procs[i].name, &procs[i])
		}
		k.Run() // every proc's first resume
		got = got[:0]
		seq := 0
		start := k.Now() + time.Second
		k.At(start, func() {
			var handles []Event
			var entries []*entry
			for op := range 10 + r.Intn(30) {
				name := fmt.Sprintf("e%d", op)
				switch x := r.Intn(6); {
				case x == 0:
					p := &procs[r.Intn(len(procs))]
					k.Wake(&p.p)
					ref = append(ref, &entry{at: k.Now(), seq: seq, name: p.name})
				case x <= 2:
					at := k.Now() + time.Duration(r.Intn(2))*time.Millisecond
					handles = append(handles, k.At(at, func() { got = append(got, name) }))
					e := &entry{at: at, seq: seq, name: name}
					entries = append(entries, e)
					ref = append(ref, e)
				case len(handles) == 0:
					continue
				case x == 3:
					i := r.Intn(len(handles))
					handles[i].Cancel()
					entries[i].dead = true
				default:
					i := r.Intn(len(handles))
					if !handles[i].Active() {
						continue
					}
					at := k.Now() + time.Duration(r.Intn(2))*time.Millisecond
					handles[i].Reschedule(at)
					entries[i].at, entries[i].seq = at, seq
				}
				seq++
				live := 0
				for _, e := range ref {
					if !e.dead {
						live++
					}
				}
				if n := k.PendingEvents(); n != live {
					t.Fatalf("seed %d: %d events pending, want %d", seed, n, live)
				}
			}
		})
		// Heap events at the ops' own instant, older than every ring slot.
		for i := range 2 {
			name := fmt.Sprintf("h%d", i)
			k.At(start, func() { got = append(got, name) })
			ref = append(ref, &entry{at: start, seq: i - 2, name: name})
		}
		k.Run()
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].at != ref[j].at {
				return ref[i].at < ref[j].at
			}
			return ref[i].seq < ref[j].seq
		})
		var want []string
		for _, e := range ref {
			if !e.dead {
				want = append(want, e.name)
			}
		}
		// The procs log their instant too; the reference names only.
		for i, g := range got {
			if _, name, ok := strings.Cut(g, " "); ok {
				got[i] = name
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: fired\n got %q\nwant %q", seed, got, want)
		}
	}
}

// selfWaker wakes itself n times at one instant. Every third resume it also
// schedules two At(now) events and 0 to 6 fillers, a random count, before the
// wake, moves the first event behind the wake with Reschedule and cancels the
// second, so ring compactions land between scheduling an event and touching
// it through its handle.
type selfWaker struct {
	p     Proc
	k     *Kernel
	rng   *rand.Rand
	n     int // resumes so far
	limit int
	// fired logs, for each moved event, the resume count it fired at.
	fired   []int
	fillers int // filler events scheduled less those fired
	extra   int // the cancelled events that fired anyway
}

func (s *selfWaker) Step() {
	s.n++
	if s.n == s.limit {
		return
	}
	if s.n%3 != 0 {
		s.k.Wake(&s.p)
		return
	}
	moved := s.k.At(s.k.Now(), func() { s.fired = append(s.fired, s.n) })
	dead := s.k.At(s.k.Now(), func() { s.extra++ })
	for range s.rng.Intn(7) {
		s.fillers++
		s.k.At(s.k.Now(), func() { s.fillers-- })
	}
	s.k.Wake(&s.p)
	moved.Reschedule(s.k.Now())
	dead.Cancel()
}

// spinner wakes itself until its limit.
type spinner struct {
	p        Proc
	k        *Kernel
	n, limit int
}

func (s *spinner) Step() {
	if s.n++; s.n < s.limit {
		s.k.Wake(&s.p)
	}
}

// TestLongSameInstantChainKeepsRingBounded: two processes waking themselves a
// million times each in one instant never let the ring drain, so the ring
// shifts down rather than grows; every wake and every moved event fires, in
// order, and no cancelled one does.
func TestLongSameInstantChainKeepsRingBounded(t *testing.T) {
	const n = 1 << 20
	k := NewKernel()
	s := &selfWaker{k: k, rng: rand.New(rand.NewSource(1)), limit: n}
	other := &spinner{k: k, limit: n}
	k.At(time.Second, func() {
		k.GoStepper(&s.p, "chain", s)
		k.GoStepper(&other.p, "spinner", other)
	})
	k.Run()
	if s.n != n || other.n != n || s.extra != 0 || s.fillers != 0 {
		t.Fatalf("%d and %d of %d resumes ran, %d cancelled events fired and %d fillers did not", s.n, other.n, n, s.extra, s.fillers)
	}
	if c := cap(k.ring.items); c > 64 {
		t.Fatalf("ring grew to %d slots for chains of at most 11 live ones", c)
	}
	// The event moved at resume i fires after the wake it was moved behind,
	// so before resume i+2.
	if len(s.fired) != (n-1)/3 {
		t.Fatalf("%d moved events fired, want %d", len(s.fired), (n-1)/3)
	}
	for j, at := range s.fired {
		if want := 3*(j+1) + 1; at != want {
			t.Fatalf("moved event %d fired at resume %d, want %d", j, at, want)
		}
	}
	if k.Now() != time.Second || k.PendingEvents() != 0 {
		t.Fatalf("chain ended at %v with %d events pending", k.Now(), k.PendingEvents())
	}
}
