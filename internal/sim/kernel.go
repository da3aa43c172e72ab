// Package sim implements a deterministic discrete-event simulation kernel
// with cooperative coroutine-based processes.
//
// The kernel owns a virtual clock and an event queue, and fires every event
// on the one goroutine that called Run.
// Processes are runtime coroutines (iter.Pull): a process-resume event
// switches into the process, and the process switches straight back when it
// blocks in virtual time — Proc.Sleep, or waiting on a Signal. A coroutine
// switch is a direct goroutine-to-goroutine handoff inside the runtime: no
// channel, no scheduler pass, no futex wake-up. Exactly one of {kernel, some
// process} executes at any moment and ties are broken by sequence number, so
// simulations are exactly reproducible.
//
// A task running custom Work is a process, so processes can be created by
// the million and creating a coroutine is dear (11 allocations against 2 for
// go + chan). Each kernel therefore pools them: a coroutine whose process
// finished parks on the kernel's idle list and runs the body of the next
// process to start; shutdown stops the ones still running a process in
// process creation order — their deferred cleanups unwind — and then the idle
// ones.
//
// A process whose blocking points are few and known can do without a stack
// altogether (Kernel.GoStepper): its resume event is a plain Step call on the
// kernel loop, it waits by enqueueing on a resource (psres.Server.Start,
// Proc.WakeAfter) and returning, and it lives in storage its caller owns and
// recycles. Analytic tasks — every task of the paper's experiments — are such
// processes; they hold no coroutine, so shutdown has nothing to stop.
//
// The event queue is the simulator's hottest data structure, so it avoids
// the generic container/heap: events live in an inlined 4-ary indexed
// min-heap ordered by (time, seq), fired events are recycled through a
// free list instead of being reallocated, lazily-cancelled events are
// compacted away once they outnumber the live ones, and the common
// timer patterns — a deadline pushed back on every heartbeat, a periodic
// tick — reschedule their event in place (Event.Reschedule, Kernel.Every)
// rather than churning cancel + new allocation.
package sim

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"time"
)

// noLimit disables the runUntil horizon.
const noLimit = time.Duration(math.MaxInt64)

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
	// ring is the fast lane for events scheduled at the current instant —
	// process wake-ups from Broadcast/Notify/Go, Yield, zero-delay sends,
	// the kernel's most common event by far. An event appended at the
	// then-current time necessarily sorts after everything already in the
	// ring (time never decreases, seq always increases), so the slice is
	// kept sorted by construction and popping its head is O(1) instead of
	// a heap sift. ringHead is the next slot to pop; ringDead counts
	// abandoned (nil) and cancelled entries at or after ringHead.
	ring     []*event
	ringHead int
	ringDead int
	free     *event // free list of recycled event structs
	// coros holds every coroutine the kernel has created; idle is the subset
	// whose process finished, waiting to run the next one (see coroutine).
	coros []*coroutine
	idle  []*coroutine
	// fired counts events that actually ran (cancelled ones excluded) —
	// the numerator of the events/sec benchmark metric.
	fired   uint64
	running bool
	stopped bool
	// limit is the runUntil horizon: loop refuses to fire events at or past
	// it. noLimit for a plain Run.
	limit time.Duration
}

// NewKernel returns a kernel with the clock at zero and an empty event queue.
func NewKernel() *Kernel {
	return &Kernel{limit: noLimit}
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
	// Sleep/Broadcast/Go resume path — without allocating a closure.
	proc *Proc
	// every > 0 marks a periodic event (Kernel.Every): after firing it is
	// rescheduled in place instead of being recycled.
	every time.Duration
	// index locates the event in a queue: >= 0 is a heap index, -1 means
	// not queued (firing, fired, or recycled), <= -2 encodes ring slot
	// -2-index.
	index     int32
	gen       uint32
	cancelled bool
	next      *event // free-list link
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
	} else if e.index <= -2 {
		ev.k.ringDead++
	}
}

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
	if e.index <= -2 {
		// Leaving the ring: abandon the slot (popping skips nils) and
		// requeue wherever the new time belongs.
		k.ring[-2-e.index] = nil
		k.ringDead++
		k.enqueue(e)
		return
	}
	k.events.fix(int(e.index))
}

// newEvent takes an event struct from the free list (or allocates one) and
// schedules it.
func (k *Kernel) newEvent(at time.Duration, fn func(), proc *Proc, every time.Duration) *event {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	e := k.free
	if e != nil {
		k.free = e.next
		e.next = nil
	} else {
		e = &event{}
	}
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
		e.index = int32(-2 - len(k.ring))
		k.ring = append(k.ring, e)
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

// afterProc schedules a direct process resume d from now — the Sleep /
// Signal / Go hot path, which needs no closure.
func (k *Kernel) afterProc(d time.Duration, p *Proc) *event {
	return k.newEvent(k.now+d, nil, p, 0)
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
// on the calling goroutine until no live event before k.limit remains or
// Stop is called. A process an event resumes runs until it parks or exits and
// control is back here.
func (k *Kernel) loop() {
	for !k.stopped {
		e := k.peekLive()
		if e == nil || e.at >= k.limit {
			return
		}
		k.popPeeked(e)
		if e.at < k.now {
			panic("sim: event queue went backwards")
		}
		k.now = e.at
		k.fired++
		switch {
		case e.proc != nil:
			p := e.proc
			k.recycle(e)
			if p.step != nil {
				p.step.Step()
			} else {
				p.switchTo()
			}
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
// would fire, without firing it. The second result is false when no live
// event is queued. The shard coordinator derives the next lookahead window
// from it.
func (k *Kernel) peekNextEventTime() (time.Duration, bool) {
	e := k.peekLive()
	if e == nil {
		return 0, false
	}
	return e.at, true
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
	k.limit = noLimit
	k.running = false
}

// peekLive returns the next live event — the (time, seq) minimum across the
// ring fast lane and the heap — without removing it, or nil when none is
// queued. Cancelled corpses encountered at either front are popped and
// recycled along the way, so a returned event is always live.
func (k *Kernel) peekLive() *event {
	for {
		for k.ringHead < len(k.ring) && k.ring[k.ringHead] == nil {
			k.ringHead++
			k.ringDead--
		}
		var r *event
		if k.ringHead < len(k.ring) {
			r = k.ring[k.ringHead]
		} else if k.ringHead > 0 {
			k.ring = k.ring[:0]
			k.ringHead = 0
		}
		if r != nil && r.cancelled {
			k.ringHead++
			k.ringDead--
			r.index = -1
			k.recycle(r)
			continue
		}
		for len(k.events) > 0 && k.events[0].cancelled {
			k.dead--
			k.recycle(k.events.pop())
		}
		var h *event
		if len(k.events) > 0 {
			h = k.events[0]
		}
		switch {
		case r == nil:
			return h
		case h == nil || !eventLess(h, r):
			return r
		default:
			return h
		}
	}
}

// popPeeked removes the event peekLive just returned — by construction the
// head of the ring or the top of the heap.
func (k *Kernel) popPeeked(e *event) {
	if e.index <= -2 {
		k.ringHead++
		e.index = -1
		return
	}
	k.events.pop()
}

// Stop makes Run return after the currently firing event completes. Remaining
// events are discarded and parked processes are killed.
func (k *Kernel) Stop() { k.stopped = true }

// PendingEvents returns the number of live (non-cancelled) events queued —
// introspection for tests and diagnostics.
func (k *Kernel) PendingEvents() int {
	return len(k.events) - k.dead + len(k.ring) - k.ringHead - k.ringDead
}

// FiredEvents returns the number of events that have run so far (process
// resumes, callbacks and periodic firings; cancelled events excluded).
// Benchmarks divide it by wall time for the kernel's events/sec figure.
func (k *Kernel) FiredEvents() uint64 { return k.fired }

// shutdown ends a run. Processes still parked are killed in process creation
// order (map or pool order here would let shutdown-time side effects, the
// deferred cleanups of killed processes, reorder between otherwise identical
// runs); then the idle coroutines are stopped, so no goroutine outlives the
// run, and the queues are dropped.
func (k *Kernel) shutdown() {
	var live []*coroutine
	for _, c := range k.coros {
		if c.p != nil {
			live = append(live, c)
		}
	}
	slices.SortFunc(live, func(a, b *coroutine) int { return cmp.Compare(a.p.seq, b.p.seq) })
	for _, c := range live {
		c.stop()
	}
	for _, c := range k.idle {
		c.stop()
	}
	k.coros, k.idle = nil, nil
	k.events = nil
	k.free = nil
	k.dead = 0
	k.ring = nil
	k.ringHead = 0
	k.ringDead = 0
}

// coroutine is a pooled runtime coroutine: it runs the body of one process
// after another, parking on its kernel's idle list in between. Pooling is
// what keeps process creation cheap — iter.Pull costs 11 allocations, and a
// kernel that runs a million short tasks needs only as many coroutines as
// run at once.
type coroutine struct {
	k *Kernel
	p *Proc // the process being run; nil while idle
	// next switches into the coroutine, stop makes its pending yield return
	// false, and yield — called on the coroutine — switches back to whoever
	// called next.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// serve is the coroutine's body: run the bound process, park idle until the
// kernel binds the next one, and return once stopped.
func (c *coroutine) serve(yield func(struct{}) bool) {
	c.yield = yield
	for c.runProc() {
		c.k.idle = append(c.k.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runProc runs the bound process to completion and unbinds it. It reports
// false when the process was killed, which only shutdown does: the coroutine
// is finished too. Any other panic travels on through next to the kernel
// loop's caller.
func (c *coroutine) runProc() (finished bool) {
	p := c.p
	defer func() {
		c.p, p.co = nil, nil
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	return true
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
// virtual time, after already-scheduled events at this timestamp. It costs
// one allocation: a coroutine is bound only when the process first runs, so
// one that never starts has nothing to shut down and fn is never called.
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

// switchTo runs the process on its coroutine until it parks or returns — the
// firing of a process-resume event. The first resume binds a coroutine from
// the owning kernel's pool.
func (p *Proc) switchTo() {
	c := p.co
	if c == nil {
		if p.fn == nil {
			panic(fmt.Sprintf("sim: resume of finished process %q", p.name))
		}
		k := p.k
		if n := len(k.idle); n > 0 {
			c = k.idle[n-1]
			k.idle = k.idle[:n-1]
		} else {
			c = &coroutine{k: k}
			c.next, c.stop = iter.Pull(c.serve)
			k.coros = append(k.coros, c)
		}
		c.p, p.co = p, c
	}
	c.next()
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// park blocks the process until some event resumes it: it switches back to
// the kernel loop, which fires the next event. A false yield means shutdown
// stopped the coroutine; the panic unwinds the process's deferred cleanups.
func (p *Proc) park() {
	if p.co == nil {
		panic(fmt.Sprintf("sim: process %q parks off a coroutine: a stackless process waits by returning from Step", p.name))
	}
	if !p.co.yield(struct{}{}) {
		panic(killed{})
	}
}

// Park parks the process until another process or event schedules it with
// Kernel.Wake. Every Park must be matched by exactly one Wake; parking
// without a guaranteed waker deadlocks the simulation at shutdown. It is
// the single-waiter fast path underlying Signal, for callers that would
// otherwise allocate a Signal per wait.
func (p *Proc) Park() { p.park() }

// Wake schedules parked process p to resume at the current virtual time,
// after already-scheduled events at this timestamp — exactly like a
// single-waiter Signal.Broadcast.
func (k *Kernel) Wake(p *Proc) { k.afterProc(0, p) }

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.WakeAfter(d)
	p.park()
}

// WakeAfter schedules the process's resume d from now: Sleep without the
// park, for a stackless process about to return from Step.
func (p *Proc) WakeAfter(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.k.afterProc(d, p)
}

// Yield reschedules the process at the current time, letting other events at
// this timestamp fire first.
func (p *Proc) Yield() { p.Sleep(0) }

// Signal is a virtual-time condition variable. The zero value is invalid;
// use NewSignal. Signals are not safe for use outside kernel/process context
// (they need no locking because only one goroutine runs at a time).
type Signal struct {
	k       *Kernel
	waiters FIFO[*Proc]
}

// NewSignal returns a signal bound to k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Wait parks p until Broadcast or Notify wakes it.
func (s *Signal) Wait(p *Proc) {
	s.waiters.Push(p)
	p.park()
}

// Broadcast wakes all waiting processes. They resume at the current virtual
// time in the order they began waiting.
func (s *Signal) Broadcast() {
	for s.waiters.Len() > 0 {
		s.k.afterProc(0, s.waiters.Pop())
	}
}

// Notify wakes the longest-waiting process, if any. It reports whether a
// process was woken.
func (s *Signal) Notify() bool {
	if s.waiters.Len() == 0 {
		return false
	}
	s.k.afterProc(0, s.waiters.Pop())
	return true
}

// Pending returns the number of processes waiting on the signal.
func (s *Signal) Pending() int { return s.waiters.Len() }

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
