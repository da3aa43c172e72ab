package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ShardSet coordinates several kernels, each simulating one disjoint
// partition — a shard — of one model. Each kernel has its own clock and
// sequence counters; RunWindows advances them concurrently, each on its own
// goroutine, through conservative lookahead windows [T, T+lookahead) where T
// is the globally earliest pending event time. Cross-shard interaction must
// go through Send with a delay of at least the lookahead, which guarantees
// every message lands at or after the window end; deliveries are merged at
// the window barrier in (time, source shard, emission) order, so runs are
// exactly reproducible. The result is not byte-identical to the same model on
// one kernel in general: same-instant events on different shards fire in
// shard order rather than global creation order.
//
// Model building before the run is sequential and schedules straight onto
// the owning shard's kernel.
type ShardSet struct {
	kernels   []*Kernel
	lookahead time.Duration

	// outbox holds cross-shard messages emitted during the current window,
	// per source shard in emission order; drained at every barrier.
	outbox [][]xmsg
	// windowEnd is the current window horizon — the earliest instant a
	// cross-shard message may arrive.
	windowEnd time.Duration
	running   bool
}

// xmsg is a cross-shard message in flight: fn runs on kernel dst at time at.
// Its place in its outbox is the final tie-breaker of the deterministic merge
// order (time, source shard, emission order).
type xmsg struct {
	at  time.Duration
	dst int
	fn  func()
}

// NewShardSet returns n kernels under one coordinator. lookahead is the
// window length and must be at most the minimum cross-shard latency of the
// model — every Send must cover it.
func NewShardSet(n int, lookahead time.Duration) *ShardSet {
	if n < 1 {
		panic(fmt.Sprintf("sim: shard set needs at least one kernel, got %d", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive shard lookahead %v", lookahead))
	}
	ss := &ShardSet{
		kernels:   make([]*Kernel, n),
		lookahead: lookahead,
		outbox:    make([][]xmsg, n),
	}
	for i := range ss.kernels {
		ss.kernels[i] = NewKernel()
	}
	return ss
}

// Shard returns the i'th kernel. Model construction schedules node-local
// work directly on its owning shard's kernel.
func (ss *ShardSet) Shard(i int) *Kernel { return ss.kernels[i] }

// Stop makes RunWindows return after the current window completes.
func (ss *ShardSet) Stop() {
	for _, k := range ss.kernels {
		k.stopped = true
	}
}

// FiredEvents returns the total number of events fired across all shards.
func (ss *ShardSet) FiredEvents() uint64 {
	var n uint64
	for _, k := range ss.kernels {
		n += k.fired
	}
	return n
}

// Send schedules fn to run on shard dst at the sending shard's now + d. It
// is the only legal cross-shard interaction during a run and must be called
// from shard from's context (inside its window). d must cover the lookahead —
// that is what makes the window conservative: the message cannot land inside
// any shard's current window. Delivery happens at the next barrier, merged
// across sources in (time, source shard, emission) order.
func (ss *ShardSet) Send(from, dst int, d time.Duration, fn func()) {
	if !ss.running {
		panic("sim: ShardSet.Send outside RunWindows; schedule on the shard's kernel directly")
	}
	if d < ss.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send delay %v below lookahead %v", d, ss.lookahead))
	}
	at := ss.kernels[from].now + d
	if at < ss.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard send arriving at %v inside the current window (end %v)", at, ss.windowEnd))
	}
	ss.outbox[from] = append(ss.outbox[from], xmsg{at: at, dst: dst, fn: fn})
}

// deliver drains every shard's outbox into the target kernels: the outboxes
// are appended in shard order, each already in emission order, then
// stable-sorted by arrival time — which is (time, source shard, emission)
// order. Target-side sequence numbers, and therefore all downstream
// tie-breaks, are then a pure function of the virtual timeline. Called
// between windows, when no shard is running.
func (ss *ShardSet) deliver() {
	var msgs []xmsg
	for src, box := range ss.outbox {
		msgs = append(msgs, box...)
		ss.outbox[src] = box[:0]
	}
	slices.SortStableFunc(msgs, func(a, b xmsg) int { return cmp.Compare(a.at, b.at) })
	for _, m := range msgs {
		ss.kernels[m.dst].At(m.at, m.fn)
	}
}

// RunWindows advances the set until every shard drains and no cross-shard
// message is in flight, or Stop is called, then shuts the shards down one by
// one in shard order. A panic in a callback or process on any shard surfaces
// in the caller, after the same shutdown. See the type comment for the
// execution model.
func (ss *ShardSet) RunWindows() {
	if ss.running {
		panic("sim: ShardSet.RunWindows called re-entrantly")
	}
	ss.running = true
	defer func() { ss.running = false }()
	defer func() {
		for _, k := range ss.kernels {
			k.shutdown()
		}
	}()
	for !ss.kernels[0].stopped {
		ss.deliver()
		// Next window starts at the globally earliest pending event.
		var start time.Duration
		found := false
		for _, k := range ss.kernels {
			if t, ok := k.peekNextEventTime(); ok && (!found || t < start) {
				start, found = t, true
			}
		}
		if !found || start == Never {
			// Nothing left, or only events at the end of time, which
			// never fire.
			break
		}
		end := start + ss.lookahead
		if end < start {
			end = Never
		}
		ss.windowEnd = end
		// Wake only the shards with work inside the window.
		var active []*Kernel
		for _, k := range ss.kernels {
			if t, ok := k.peekNextEventTime(); ok && t < end {
				active = append(active, k)
			}
		}
		runWindow(active, end)
	}
}

// runWindow advances every active shard to end and returns once all of them
// have stopped: the first inline on the calling goroutine, the rest on a
// goroutine each. A single active shard — the common case during quiet
// driver-only stretches — therefore costs no handoff. A panic on a shard is
// held until the barrier, so no shard is still running when the caller
// unwinds into shutdown, and then re-raised here, lowest shard first.
func runWindow(active []*Kernel, end time.Duration) {
	if len(active) == 1 {
		active[0].runUntil(end)
		return
	}
	panics := make([]any, len(active))
	run := func(i int) {
		defer func() { panics[i] = recover() }()
		active[i].runUntil(end)
	}
	var wg sync.WaitGroup
	for i := 1; i < len(active); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(0)
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}
