// Package sim implements a deterministic discrete-event simulation kernel
// with cooperative processes.
//
// The kernel owns a virtual clock and an event queue, and fires every event
// on the one goroutine that called Run. Exactly one of {kernel, some process}
// executes at any moment and ties are broken by sequence number, so
// simulations are exactly reproducible.
//
// A process whose blocking points are few and known needs no stack
// (Kernel.GoStepper): its resume event is a plain Step call on the kernel
// loop, it waits by enqueueing on a resource (psres.Server.Start,
// Mailbox.StartRecv, Proc.WakeAfter) and returning, and it lives in storage
// its caller owns and recycles. Every process of the engine — tasks, executor
// control loops, the driver — is one; they hold no coroutine, so shutdown has
// nothing to stop.
//
// A process written as straight-line code (Kernel.Go) runs on a runtime
// coroutine (iter.Pull) of its own: a process-resume event switches into it,
// and it switches straight back when it blocks in virtual time — Proc.Sleep,
// Park, Mailbox.Recv. A coroutine switch is a direct goroutine-to-goroutine
// handoff inside the runtime: no channel, no scheduler pass, no futex
// wake-up. Shutdown stops the coroutines of processes still parked, in
// process creation order, so their deferred cleanups unwind. Nothing
// simulated runs on one: they remain for the benchmark's kernel ladder, which
// times them, and for this package's tests, which hold steppers to them.
//
// The event queue is the simulator's hottest data structure, so it avoids
// the generic container/heap: events live in an inlined 4-ary indexed
// min-heap ordered by (time, seq), fired events are recycled through a
// free list instead of being reallocated, lazily-cancelled events are
// compacted away once they outnumber the live ones, and the common
// timer patterns — a deadline pushed back on every heartbeat, a periodic
// tick — reschedule their event in place (Event.Reschedule, Kernel.Every)
// rather than churning cancel + new allocation. The current instant skips
// the heap: a wake is a {seq, proc} ring slot with no event struct, a ring
// that never drains moves its unpopped slots to the front rather than grow,
// and work batched per instant (a psres.Server's re-plan after k arrivals)
// waits for the end-of-instant phase (Kernel.Settle), run once the ring is
// empty or a heap event, even one at this instant, is next. Messages a
// Mailbox is sent at one instant for one arrival instant ride one event.
package sim

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"time"
)

// Never is the last instant of virtual time. A kernel fires no event at or
// past its horizon, which is Never unless runUntil set an earlier one, so an
// event scheduled at Never stays queued for good: the place for a deadline
// nothing can reach.
const Never = time.Duration(math.MaxInt64)

// Kernel is a discrete-event simulator. The zero value is not usable; use
// NewKernel.
type Kernel struct {
	now time.Duration
	// seq and procSeq number events and processes in creation order: seq
	// breaks same-instant ties FIFO, procSeq fixes the shutdown kill order.
	seq     uint64
	procSeq uint64
	events  eventQueue
	// dead counts cancelled events still sitting in the queue; once they
	// outnumber the live ones the queue is compacted in one pass.
	dead int
	// ring is the fast lane for the current instant — process wake-ups from
	// Wake/Mailbox.Put/Go, the kernel's most common event by far, as bare
	// {seq, proc} slots, and At(now) events. A slot appended at the
	// then-current time necessarily sorts after everything already in the
	// ring (time never decreases, seq always increases), so the slice is
	// kept sorted by construction and popping its head is O(1) instead of
	// a heap sift. ringDead counts the abandoned and cancelled slots in it.
	ring     FIFO[ringSlot]
	ringDead int
	settles  []Settler // the end-of-instant phase, in registration order
	free     *event    // free list of recycled event structs
	// coros holds the coroutine of every Go process between its first resume
	// and its return, in that order: what shutdown has to stop.
	coros []*coroutine
	// fired counts events that actually ran (cancelled ones excluded) —
	// the numerator of the events/sec benchmark metric.
	fired   uint64
	running bool
	stopped bool
	// limit is the runUntil horizon: loop refuses to fire events at or past
	// it: the budget's horizon for a plain Run.
	limit time.Duration
	// horizon and maxFired are Run's budget (Budget): Never and
	// math.MaxUint64 when unbounded. overrun describes the run a budget
	// ended, nil otherwise.
	horizon  time.Duration
	maxFired uint64
	overrun  *Overrun
}

// NewKernel returns a kernel with the clock at zero and an empty event queue.
func NewKernel() *Kernel {
	return &Kernel{limit: Never, horizon: Never, maxFired: math.MaxUint64}
}

// Budget bounds Run: it fires no event at or past horizon, and no more than
// events events in all; 0 leaves either unbounded. A run a budget ends is
// shut down like a drained one, and Overrun describes it. The budget bounds
// Run only: a shard set's windows (RunWindows) are not bounded by it.
func (k *Kernel) Budget(horizon time.Duration, events uint64) {
	k.horizon, k.maxFired = Never, math.MaxUint64
	if horizon > 0 {
		k.horizon = horizon
	}
	if events > 0 {
		k.maxFired = events
	}
	k.limit = k.horizon
}

// Overrun describes a run its budget ended (Kernel.Budget).
type Overrun struct {
	// Events is set when the event budget ran out, clear when the next
	// event lay at or past the horizon.
	Events bool
	// At and Fired are the clock and the count of fired events at the end.
	At    time.Duration
	Fired uint64
	// Queued names the processes with a resume queued, each name once
	// ("name×n" for n of them), in the order the queues hold them.
	Queued []string
}

// Overrun describes the last run if a budget ended it, or returns nil.
func (k *Kernel) Overrun() *Overrun { return k.overrun }

// overran records that a budget ended the run, while the queues still hold
// what was left.
func (k *Kernel) overran(events bool) {
	o := &Overrun{Events: events, At: k.now, Fired: k.fired}
	count := map[string]int{}
	note := func(p *Proc) {
		if p != nil {
			if count[p.name] == 0 {
				o.Queued = append(o.Queued, p.name)
			}
			count[p.name]++
		}
	}
	for _, s := range k.ring.items[k.ring.head:] {
		note(s.proc)
	}
	for _, e := range k.events {
		if !e.cancelled {
			note(e.proc)
		}
	}
	for i, name := range o.Queued {
		if n := count[name]; n > 1 {
			o.Queued[i] = fmt.Sprintf("%s×%d", name, n)
		}
	}
	k.overrun = o
}

// Now returns the current virtual time (duration since simulation start).
func (k *Kernel) Now() time.Duration { return k.now }

// event is the kernel-internal representation of a scheduled callback. The
// struct is recycled through the kernel free list once fired or compacted
// away; gen is bumped on every recycle so stale Event handles become inert.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// proc, if non-nil, makes firing switch into the process — the
	// WakeAfter/Wake/Go resume path — without allocating a closure.
	proc *Proc
	// every > 0 marks a periodic event (Kernel.Every): after firing it is
	// rescheduled in place instead of being recycled.
	every time.Duration
	// index locates the event in a queue: >= 0 is a heap index, -1 means
	// not queued (firing, fired, or recycled), -2 the ring.
	index     int32
	gen       uint32
	cancelled bool
	next      *event // free-list link
}

// ringSlot is one entry of the same-instant ring: a process resume (proc), or
// a cancellable event (e), abandoned once the event was rescheduled out and
// so no longer carries the slot's seq.
type ringSlot struct {
	seq  uint64
	proc *Proc
	e    *event
}

// Event is a cancellable handle to a scheduled callback. The zero value is
// an inert handle: Cancel is a no-op and Active reports false. Handles are
// generation-checked, so holding one past its event's firing is safe — it
// simply goes inert once the kernel recycles the event.
type Event struct {
	k   *Kernel
	e   *event
	gen uint32
}

// Active reports whether the event is still scheduled to fire: it has not
// fired (periodic events stay active across firings), been cancelled, or
// been discarded by shutdown.
func (ev Event) Active() bool {
	return ev.e != nil && ev.e.gen == ev.gen && !ev.e.cancelled && (ev.e.index != -1 || ev.e.every > 0)
}

// Cancel prevents the event from firing (again, for periodic events).
// Cancelling an already-fired, already-cancelled or zero-value handle is a
// no-op. Cancellation is lazy — the event stays queued until it is popped
// or compacted away — so it is O(1).
func (ev Event) Cancel() {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 {
		ev.k.dead++
		ev.k.maybeCompact()
	} else if e.index == -2 {
		ev.k.ringDead++
	}
}

// At returns the instant an active event is scheduled for.
func (ev Event) At() time.Duration { return ev.e.at }

// Reschedule moves a still-active event to absolute virtual time at,
// assigning it a fresh sequence number — exactly the ordering a cancel
// followed by a new At would produce, without the allocation or the dead
// queue entry. It panics if the event is no longer active or at is in the
// past; callers guard with Active.
func (ev Event) Reschedule(at time.Duration) {
	e := ev.e
	if !ev.Active() || e.index == -1 {
		panic("sim: Reschedule of inactive event")
	}
	k := ev.k
	if at < k.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", at, k.now))
	}
	e.seq = k.seq
	k.seq++
	e.at = at
	if e.index == -2 {
		// Leaving the ring: the slot, whose seq the event no longer
		// carries, is abandoned (popping skips it); requeue wherever the
		// new time belongs.
		k.ringDead++
		k.enqueue(e)
		return
	}
	k.events.fix(int(e.index))
}

// eventBlock is how many event structs the kernel allocates at once when its
// free list runs dry: the list grows to the run's peak of queued events in
// one object per block, not one per event.
const eventBlock = 32

// newEvent takes an event struct from the free list (refilling it a block at
// a time) and schedules it.
func (k *Kernel) newEvent(at time.Duration, fn func(), proc *Proc, every time.Duration) *event {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	if k.free == nil {
		block := make([]event, eventBlock)
		for i := range block[:eventBlock-1] {
			block[i].next = &block[i+1]
		}
		k.free = &block[0]
	}
	e := k.free
	k.free = e.next
	e.next = nil
	e.at = at
	e.seq = k.seq
	k.seq++
	e.fn = fn
	e.proc = proc
	e.every = every
	e.cancelled = false
	k.enqueue(e)
	return e
}

// enqueue routes an event to the ring (scheduled at the current instant,
// where its fresh seq keeps the ring sorted by construction) or the heap.
func (k *Kernel) enqueue(e *event) {
	if e.at == k.now {
		e.index = -2
		k.ring.Push(ringSlot{seq: e.seq, e: e})
		return
	}
	k.events.push(e)
}

// recycle returns a fired or compacted event to the free list, bumping its
// generation so outstanding handles go inert.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.proc = nil
	e.every = 0
	e.cancelled = false
	e.index = -1
	e.next = k.free
	k.free = e
}

// maybeCompact sweeps cancelled events out of the queue once they outnumber
// the live ones. Heartbeat-deadline and speculation-style timers cancel far
// more events than they fire; without compaction those corpses would sit in
// the heap for the rest of the run, taxing every push and pop.
func (k *Kernel) maybeCompact() {
	if n := len(k.events); k.dead*2 <= n || n < 64 {
		return
	}
	live := k.events[:0]
	for _, e := range k.events {
		if e.cancelled {
			k.recycle(e)
			continue
		}
		live = append(live, e)
	}
	for i := len(live); i < len(k.events); i++ {
		k.events[i] = nil
	}
	k.events = live
	k.events.heapify()
	k.dead = 0
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it would break causality.
func (k *Kernel) At(at time.Duration, fn func()) Event {
	e := k.newEvent(at, fn, nil, 0)
	return Event{k: k, e: e, gen: e.gen}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d time.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// Every schedules fn to run every d of virtual time, first at now+d. The
// event reschedules itself in place after each firing — one queue entry and
// one struct for the whole series, rather than a cancel + fresh allocation
// per tick (the heartbeat/monitor-tick pattern). The series runs until the
// returned handle is cancelled; the handle stays valid across firings.
func (k *Kernel) Every(d time.Duration, fn func()) Event {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", d))
	}
	e := k.newEvent(k.now+d, fn, nil, d)
	return Event{k: k, e: e, gen: e.gen}
}

// afterProc schedules a direct process resume d from now — the WakeAfter /
// Wake / Go hot path, which needs no closure, and at d = 0 no event struct.
func (k *Kernel) afterProc(d time.Duration, p *Proc) {
	if d > 0 {
		k.newEvent(k.now+d, nil, p, 0)
		return
	}
	k.ring.Push(ringSlot{seq: k.seq, proc: p})
	k.seq++
}

// Settler is work deferred to the end of an instant (Kernel.Settle).
type Settler interface{ Settle() }

// Settle registers s for the end-of-instant phase: s.Settle runs once the
// ring is empty or a heap event is next (even one at this instant), in
// registration order, and may schedule events, at this instant too.
func (k *Kernel) Settle(s Settler) { k.settles = append(k.settles, s) }

// runSettles runs the end-of-instant phase; a Settle registering joins it.
func (k *Kernel) runSettles() {
	for i := 0; i < len(k.settles); i++ {
		k.settles[i].Settle()
	}
	k.settles = k.settles[:0]
}

// Run fires events in timestamp order (FIFO among equal timestamps) until the
// queue is empty or Stop is called, then kills any processes that are still
// parked and releases the kernel's coroutines. A stackless process still
// waiting holds no coroutine: there is nothing to kill, its Step is simply
// never called again. Every event — callbacks and process resumes alike —
// fires on the calling goroutine, so a panic inside a callback or a process
// surfaces here, after the same shutdown. Run must not be called from inside
// a process.
func (k *Kernel) Run() {
	if k.running {
		panic("sim: Run called re-entrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	defer k.shutdown()
	k.loop()
}

// loop is the kernel's one event loop: it fires events in (time, seq) order
// on the calling goroutine, and settles before any heap event, until no live
// event before k.limit remains or Stop is called. A process an event resumes
// runs until it parks or exits and control is back here.
func (k *Kernel) loop() {
	for !k.stopped {
		if k.fired >= k.maxFired {
			if h := k.heapTop(); k.ringTop() != nil || len(k.settles) > 0 || h != nil && h.at < k.limit {
				k.overran(true)
			}
			return
		}
		var e *event
		switch r, h := k.ringTop(), k.heapTop(); {
		case r != nil && (h == nil || h.at > k.now || h.seq > r.seq):
			s := k.ring.Pop()
			k.fired++
			if s.proc != nil {
				s.proc.resume()
				continue
			}
			e = s.e
			e.index = -1
		case len(k.settles) > 0:
			k.runSettles()
			continue
		case h == nil || h.at >= k.limit:
			if h != nil && h.at >= k.horizon && h.at != Never {
				k.overran(false)
			}
			return
		default:
			k.events.pop()
			if h.at < k.now {
				panic("sim: event queue went backwards")
			}
			k.now = h.at
			k.fired++
			e = h
		}
		switch {
		case e.proc != nil:
			p := e.proc
			k.recycle(e)
			p.resume()
		case e.every > 0:
			e.fn()
			if e.cancelled {
				// fn cancelled its own series mid-fire.
				k.recycle(e)
			} else {
				// Reschedule in place with a fresh seq, after fn so
				// anything fn scheduled at the next tick fires first.
				e.at += e.every
				e.seq = k.seq
				k.seq++
				k.events.push(e)
			}
		default:
			fn := e.fn
			k.recycle(e)
			fn()
		}
	}
}

// peekNextEventTime returns the virtual time of the next event this kernel
// would fire, without firing it (but settling what model building left). The
// second result is false when no live event is queued. The shard coordinator
// derives the next lookahead window from it.
func (k *Kernel) peekNextEventTime() (time.Duration, bool) {
	k.runSettles()
	if k.ringTop() != nil {
		return k.now, true
	}
	if h := k.heapTop(); h != nil {
		return h.at, true
	}
	return 0, false
}

// runUntil fires events in (time, seq) order until no event strictly before
// limit remains, or Stop is called. Unlike Run it does not shut the kernel
// down: parked processes stay parked and the clock stays wherever the last
// event left it, ready for the next window. It is the shard primitive — the
// coordinator picks a horizon no shard may cross and lets every shard run its
// own loop (no per-event coordination) up to it. Each window may call it from
// a different goroutine, never two at once.
func (k *Kernel) runUntil(limit time.Duration) {
	if k.running {
		panic("sim: runUntil called re-entrantly")
	}
	k.running = true
	k.limit = limit
	k.loop()
	k.limit = k.horizon
	k.running = false
}

// ringTop returns the ring's next live slot, or nil, popping dead slots (a
// cancelled event is recycled; an abandoned one lives on elsewhere).
func (k *Kernel) ringTop() *ringSlot {
	for k.ring.Len() > 0 {
		r := &k.ring.items[k.ring.head]
		if r.proc != nil || r.e.seq == r.seq && !r.e.cancelled {
			return r
		}
		k.ringDead--
		if r.e.seq == r.seq {
			r.e.index = -1
			k.recycle(r.e)
		}
		k.ring.Pop()
	}
	return nil
}

// heapTop returns the heap's next live event without removing it, or nil when
// none is queued; cancelled corpses at the top are popped and recycled.
func (k *Kernel) heapTop() *event {
	for len(k.events) > 0 {
		if e := k.events[0]; !e.cancelled {
			return e
		}
		k.dead--
		k.recycle(k.events.pop())
	}
	return nil
}

// Stop makes Run return after the currently firing event completes. Remaining
// events are discarded and parked processes are killed.
func (k *Kernel) Stop() { k.stopped = true }

// PendingEvents returns the number of live (non-cancelled) events queued —
// introspection for tests and diagnostics.
func (k *Kernel) PendingEvents() int {
	return len(k.events) - k.dead + k.ring.Len() - k.ringDead
}

// FiredEvents returns the number of events that have run so far (process
// resumes, callbacks and periodic firings; cancelled events excluded).
// Benchmarks divide it by wall time for the kernel's events/sec figure.
func (k *Kernel) FiredEvents() uint64 { return k.fired }

// shutdown ends a run. Processes still parked are killed in process creation
// order — the order of k.coros: first resumes fire in the order of the Go
// calls — so the deferred cleanups of killed processes run in the same order
// in otherwise identical runs and no goroutine outlives the run; then the
// queues are emptied. The events and settles still queued are dropped, and
// what draining left in the ring and settle arrays is cleared, but the arrays
// and the free list stay for Release.
func (k *Kernel) shutdown() {
	for len(k.coros) > 0 {
		k.coros[0].stop() // unwinds through run, which unlists it
	}
	k.coros = nil
	clear(k.events)
	clear(k.ring.items[:cap(k.ring.items)])
	clear(k.settles[:cap(k.settles)])
	k.events, k.ring, k.settles = k.events[:0], FIFO[ringSlot]{items: k.ring.items[:0]}, k.settles[:0]
	k.dead, k.ringDead = 0, 0
}

// Storage is the event storage of a kernel that has finished — its free
// event structs and the arrays of its heap, ring and settle list — for a
// kernel of a later run to start with (Release, Reuse). The zero value holds
// nothing.
type Storage struct {
	free    *event
	heap    eventQueue
	ring    []ringSlot
	settles []Settler
}

// Release takes k's event storage and leaves k none; a kernel that is running
// or has events or settles queued is not idle and keeps it. Every struct on
// the free list was recycled after its last firing, so k's handles stay inert.
func (k *Kernel) Release() Storage {
	if k.running || len(k.events) > 0 || k.ring.Len() > 0 || len(k.settles) > 0 {
		return Storage{}
	}
	st := Storage{free: k.free, heap: k.events, ring: k.ring.items, settles: k.settles}
	k.free, k.events, k.ring, k.settles = nil, nil, FIFO[ringSlot]{}, nil
	return st
}

// Reuse hands k, before its first event, the storage another kernel released.
func (k *Kernel) Reuse(st Storage) {
	k.free, k.events, k.ring.items, k.settles = st.free, st.heap, st.ring, st.settles
}

// coroutine is the runtime coroutine one Go process runs on.
type coroutine struct {
	p *Proc
	// next switches into the coroutine, stop makes its pending yield return
	// false, and yield — called on the coroutine — switches back to whoever
	// called next.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// run is the coroutine's body: the process's, to completion. Being killed,
// which only shutdown does, ends it quietly; any other panic travels on
// through next to the kernel loop's caller.
func (c *coroutine) run(yield func(struct{}) bool) {
	c.yield = yield
	p := c.p
	defer func() {
		p.co = nil
		i := slices.Index(p.k.coros, c)
		p.k.coros = slices.Delete(p.k.coros, i, i+1)
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
}

// Proc is a simulation process: it advances only when the kernel resumes it,
// and blocks only in virtual time. Go's processes run a body on a coroutine;
// GoStepper's are stackless.
type Proc struct {
	k    *Kernel
	name string
	seq  uint64
	fn   func(p *Proc) // the body, until the first resume starts it
	co   *coroutine    // what runs the body, from then until it returns
	step Stepper       // a stackless process's resume; nil for Go's
}

// Stepper is the body of a stackless process: every resume event of the
// process is one Step call on the kernel loop. Step runs to the process's
// next wait — enqueue for exactly one wake (psres.Server.Start and the device
// Start forms, Proc.WakeAfter, a Kernel.Wake someone owes it) and return — or
// to its end, which is returning with no wake pending.
type Stepper interface {
	Step()
}

// killed is the panic value used to unwind a process during shutdown.
type killed struct{}

// Go spawns a new process running fn. The process starts at the current
// virtual time, after already-scheduled events at this timestamp. Its
// coroutine is created only when the process first runs, so one that never
// starts has nothing to shut down and fn is never called.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, seq: k.procSeq, fn: fn}
	k.procSeq++
	k.afterProc(0, p)
	return p
}

// GoStepper starts a stackless process in p, storage the caller owns and may
// reuse once the process has ended. It takes exactly Go's place in the
// kernel's order — one process sequence number, one resume event at the
// current instant — and allocates nothing.
func (k *Kernel) GoStepper(p *Proc, name string, s Stepper) {
	*p = Proc{k: k, name: name, seq: k.procSeq, step: s}
	k.procSeq++
	k.afterProc(0, p)
}

// resume is the firing of a process-resume event: one Step of a stackless
// process, or a switch into the process's coroutine until it parks or
// returns. The first resume creates the coroutine.
func (p *Proc) resume() {
	if p.step != nil {
		p.step.Step()
		return
	}
	c := p.co
	if c == nil {
		if p.fn == nil {
			panic(fmt.Sprintf("sim: resume of finished process %q", p.name))
		}
		c = &coroutine{p: p}
		c.next, c.stop = iter.Pull(c.run)
		p.k.coros = append(p.k.coros, c)
		p.co = c
	}
	c.next()
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Park parks the process until another process or event schedules it with
// Kernel.Wake: it switches back to the kernel loop, which fires the next
// event. Every Park must be matched by exactly one Wake; a process parked
// without a waker stays parked until shutdown kills it. Sleep and Mailbox.Recv
// are Park after arranging that wake. A false yield means shutdown stopped the
// coroutine; the panic unwinds the process's deferred cleanups.
func (p *Proc) Park() {
	if p.co == nil {
		panic(fmt.Sprintf("sim: process %q parks off a coroutine: a stackless process waits by returning from Step", p.name))
	}
	if !p.co.yield(struct{}{}) {
		panic(killed{})
	}
}

// Wake schedules parked process p to resume at the current virtual time,
// after already-scheduled events at this timestamp.
func (k *Kernel) Wake(p *Proc) { k.afterProc(0, p) }

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.WakeAfter(d)
	p.Park()
}

// WakeAfter schedules the process's resume d from now: Sleep without the
// park, for a stackless process about to return from Step.
func (p *Proc) WakeAfter(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.k.afterProc(d, p)
}

// eventQueue is an inlined 4-ary indexed min-heap of events ordered by
// (at, seq). 4-ary halves the depth of the binary heap the generic
// container/heap would give and keeps three of four children on the same
// cache line pair, and the concrete element type removes every interface
// call from push/pop — together the bulk of the kernel's 2x+ event
// throughput over the container/heap implementation it replaced.
type eventQueue []*event

// less orders events by (at, seq); seq breaks ties FIFO.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e *event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	e.index = int32(i)
	h.up(i)
}

func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		(*q).down(0)
	}
	top.index = -1
	return top
}

// fix restores the heap property around index i after its event's key
// changed.
func (q eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

// heapify rebuilds the heap property over the whole slice in O(n) — used
// after compaction.
func (q eventQueue) heapify() {
	for i := range q {
		q[i].index = int32(i)
	}
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		q.down(i)
	}
}

func (q eventQueue) up(i int) {
	e := q[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := q[parent]
		if !eventLess(e, p) {
			break
		}
		q[i] = p
		p.index = int32(i)
		i = parent
	}
	q[i] = e
	e.index = int32(i)
}

// down sifts index i toward the leaves, reporting whether it moved.
func (q eventQueue) down(i int) bool {
	n := len(q)
	e := q[i]
	start := i
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(q[c], q[min]) {
				min = c
			}
		}
		if !eventLess(q[min], e) {
			break
		}
		q[i] = q[min]
		q[i].index = int32(i)
		i = min
	}
	q[i] = e
	e.index = int32(i)
	return i > start
}
