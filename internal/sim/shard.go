package sim

import (
	"fmt"
	"sort"
	"time"
)

// ShardSet coordinates several kernels simulating disjoint partitions
// ("shards") of one model under a shared clock. It supports two execution
// modes, chosen by which run method is called:
//
//   - Run (merged): the coordinator repeatedly fires the globally earliest
//     event across all shards, one at a time. The kernels share a clock and
//     one (time, seq) sequence space, so the total event order — and
//     therefore every side effect, tie-break and trace byte — is identical
//     to running the whole model on a single kernel. Shards may interact
//     arbitrarily (zero-latency cross-shard reads included) because
//     execution is sequential. This is the deterministic merge path.
//
//   - RunWindows (windowed): shards advance concurrently, each on its own
//     goroutine, through conservative lookahead windows [T, T+lookahead)
//     where T is the globally earliest pending event time. Cross-shard
//     interaction must go through Send with a delay of at least the
//     lookahead, which guarantees every message lands at or after the
//     window end; deliveries are merged at the window barrier in
//     (time, source shard, source seq) order, so runs are exactly
//     reproducible. Not byte-identical to serial in general: same-instant
//     events on different shards fire in shard order rather than global
//     creation order.
//
// A ShardSet is constructed in the merged configuration (shared clock and
// sequence space); RunWindows splits the shared state into per-kernel
// copies before the first window. Construction-time model building is
// sequential either way, so everything scheduled before the run is
// identically ordered in both modes.
type ShardSet struct {
	kernels   []*Kernel
	lookahead time.Duration

	// windowed flips when RunWindows takes over; Send requires it.
	windowed bool
	// outbox and outseq hold cross-shard messages emitted during the
	// current window, per source shard; drained at every barrier.
	outbox [][]xmsg
	outseq []uint64
	// windowEnd is the current window horizon — the earliest instant a
	// cross-shard message may arrive.
	windowEnd time.Duration
	running   bool
}

// xmsg is a cross-shard message in flight: fn runs on kernel dst at time at.
// seq is the source shard's emission counter, the final tie-breaker of the
// deterministic merge order (time, source shard, source seq).
type xmsg struct {
	at  time.Duration
	seq uint64
	dst int
	fn  func()
}

// NewShardSet returns n kernels under one coordinator, sharing a clock and
// sequence space until (and unless) RunWindows splits them. lookahead is the
// windowed-mode horizon length and must be at least the minimum cross-shard
// latency of the model — every Send must cover it; pass any positive bound
// if only Run (merged mode) will be used.
func NewShardSet(n int, lookahead time.Duration) *ShardSet {
	if n < 1 {
		panic(fmt.Sprintf("sim: shard set needs at least one kernel, got %d", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive shard lookahead %v", lookahead))
	}
	st := &kstate{}
	ss := &ShardSet{
		kernels:   make([]*Kernel, n),
		lookahead: lookahead,
		outbox:    make([][]xmsg, n),
		outseq:    make([]uint64, n),
	}
	for i := range ss.kernels {
		k := NewKernel()
		k.st = st
		ss.kernels[i] = k
	}
	return ss
}

// Shard returns the i'th kernel. Model construction schedules node-local
// work directly on its owning shard's kernel.
func (ss *ShardSet) Shard(i int) *Kernel { return ss.kernels[i] }

// Shards returns the number of kernels in the set.
func (ss *ShardSet) Shards() int { return len(ss.kernels) }

// Lookahead returns the windowed-mode horizon length.
func (ss *ShardSet) Lookahead() time.Duration { return ss.lookahead }

// Stop makes the active run method return after the currently firing event
// (merged) or the current window (windowed) completes.
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

// Run advances the set in merged mode: fire the globally earliest event,
// one at a time, until every shard drains or Stop is called, then kill
// still-parked processes across all shards in global creation order (the
// shared procSeq) — exactly what a single kernel's Run would do with the
// union of the queues.
func (ss *ShardSet) Run() {
	if ss.running {
		panic("sim: ShardSet.Run called re-entrantly")
	}
	ss.running = true
	defer func() { ss.running = false }()
	defer shutdown(ss.kernels...)
	for !ss.kernels[0].stopped {
		var best *Kernel
		var be *event
		for _, k := range ss.kernels {
			if e := k.peekLive(); e != nil && (be == nil || eventLess(e, be)) {
				be, best = e, k
			}
		}
		if be == nil {
			break
		}
		best.ProcessNextEvent()
	}
}

// split converts the set from the shared (merged) configuration to
// independent per-shard kernels for windowed execution: each kernel gets
// its own copy of the shared counters (still monotone — determinism within
// a shard is preserved), so RunUntil can run each shard's loop on its own.
func (ss *ShardSet) split() {
	shared := ss.kernels[0].st
	for _, k := range ss.kernels {
		st := *shared
		k.st = &st
	}
}

// Send schedules fn to run on shard dst at the sending shard's now + d. It
// is the only legal cross-shard interaction in windowed mode and must be
// called from shard from's context (inside its window). d must cover the
// lookahead — that is what makes the window conservative: the message
// cannot land inside any shard's current window. Delivery happens at the
// next barrier, merged across sources in (time, source shard, source seq)
// order.
func (ss *ShardSet) Send(from, dst int, d time.Duration, fn func()) {
	if !ss.windowed {
		panic("sim: ShardSet.Send outside a windowed run; schedule directly in merged mode")
	}
	if d < ss.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send delay %v below lookahead %v", d, ss.lookahead))
	}
	at := ss.kernels[from].st.now + d
	if at < ss.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard send arriving at %v inside the current window (end %v)", at, ss.windowEnd))
	}
	ss.outbox[from] = append(ss.outbox[from], xmsg{at: at, seq: ss.outseq[from], dst: dst, fn: fn})
	ss.outseq[from]++
}

// deliver drains every shard's outbox into the target kernels, in
// (time, source shard, source seq) order so target-side sequence numbers —
// and therefore all downstream tie-breaks — are a pure function of the
// virtual timeline. Called between windows, when no shard is running.
func (ss *ShardSet) deliver() {
	var msgs []xmsg
	for src, box := range ss.outbox {
		if len(box) == 0 {
			continue
		}
		if msgs == nil {
			// Tag entries with their source shard via a stable merge:
			// sort.SliceStable keeps equal-at entries in append order,
			// which is (source shard, source seq) because outboxes are
			// appended in shard order and each is already seq-ordered.
			msgs = make([]xmsg, 0, len(box))
		}
		msgs = append(msgs, box...)
		ss.outbox[src] = box[:0]
	}
	if len(msgs) == 0 {
		return
	}
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].at < msgs[j].at })
	for _, m := range msgs {
		ss.kernels[m.dst].At(m.at, m.fn)
	}
}

// RunWindows advances the set in windowed mode until every shard drains and
// no cross-shard message is in flight, or Stop is called, then shuts the
// shards down one by one in shard order. See the type comment for the
// execution model.
func (ss *ShardSet) RunWindows() {
	if ss.running {
		panic("sim: ShardSet.RunWindows called re-entrantly")
	}
	ss.running = true
	ss.windowed = true
	defer func() { ss.running = false }()
	ss.split()
	n := len(ss.kernels)
	done := make(chan struct{}, n)
	for !ss.kernels[0].stopped {
		ss.deliver()
		// Next window starts at the globally earliest pending event.
		var start time.Duration
		found := false
		for _, k := range ss.kernels {
			if t, ok := k.PeekNextEventTime(); ok && (!found || t < start) {
				start, found = t, true
			}
		}
		if !found {
			break
		}
		end := start + ss.lookahead
		ss.windowEnd = end
		// Wake only the shards with work inside the window. A single
		// active shard runs inline on the coordinator goroutine — the
		// common case during quiet driver-only stretches — to skip the
		// handoff cost.
		var active []*Kernel
		for _, k := range ss.kernels {
			if t, ok := k.PeekNextEventTime(); ok && t < end {
				active = append(active, k)
			}
		}
		if len(active) == 1 {
			active[0].RunUntil(end)
			continue
		}
		for _, k := range active[1:] {
			go func(k *Kernel) {
				k.RunUntil(end)
				done <- struct{}{}
			}(k)
		}
		active[0].RunUntil(end)
		for range active[1:] {
			<-done
		}
	}
	for _, k := range ss.kernels {
		shutdown(k)
	}
}
