package engine

import (
	"sync"
	"time"
)

// runSpares is the task-sized state one run leaves for the next engine in the
// process: the driver's task tables, pending tickets and duration ledgers, the
// shuffle registry's output lists, the executors' task contexts and the
// control-plane free lists. A run's reports, DFS and telemetry keep none of it,
// so once the simulation has drained it is unreachable; Wait gives it back to
// sparePool as its very last act and the next recycling NewEngine takes it
// (DESIGN.md "What a run allocates"). Between the two it belongs to one engine
// alone. sync.Pool bounds what is kept: an idle pool is emptied within two
// collections.
type runSpares struct {
	tasks     slab[taskState]
	tickets   slab[int]
	durations slab[time.Duration]
	outs      slab[mapOutput]
	slots     slab[int32]
	// contexts lists zeroed task contexts, linked through taskContext.free;
	// an executor whose own free list is empty takes from it.
	contexts *taskContext

	// Free lists of the per-task control plane (DESIGN.md "Control-plane
	// messages").
	launches pool[launchMsg]
	dones    pool[taskDoneMsg]
	beats    pool[heartbeatMsg]
	plans    [][]segment
}

var sparePool = sync.Pool{New: func() any { return new(runSpares) }}

// context takes a task context off the spares' list, or makes one.
func (sp *runSpares) context() *taskContext {
	tc := sp.contexts
	if tc == nil {
		return new(taskContext)
	}
	sp.contexts = tc.free
	return tc
}

// giveBackSpares hands the run's spares to the next engine: every executor's
// free task contexts join the spares' list, zeroed so they pin nothing of this
// run, and the slabs start over. It must come after everything the run does,
// since another goroutine's engine may take the spares the instant they are
// put back.
func (e *Engine) giveBackSpares() {
	sp := e.spares
	for _, ex := range e.executors {
		for tc := ex.freeTasks; tc != nil; {
			next := tc.free
			*tc = taskContext{free: sp.contexts}
			sp.contexts, tc = tc, next
		}
		ex.freeTasks = nil
	}
	sp.tasks.reset()
	sp.tickets.reset()
	sp.durations.reset()
	sp.outs.reset()
	sp.slots.reset()
	sparePool.Put(sp)
}

// slab hands a run zeroed windows of arrays earlier runs made. A window is
// sliced with three indices, so an append past it reallocates as it would from
// make and never reaches a neighbour.
//
// take carves windows in order from chunks; once they run out it makes each
// array on its own, exactly the size asked, so a cold run allocates what it
// would without a slab. reset keeps what a run made: as the chunks, in the
// order taken, when there were none — a run of the same shape then finds every
// window where the last one left it and allocates nothing — or else, the run
// having outgrown or fragmented the chunks, as one array the size of the
// largest run's asks, which every run up to that size carves without making
// anything. So a slab never keeps more than the largest run since its spares
// were made asked for.
type slab[T any] struct {
	chunks    [][]T
	next, off int   // the chunk being carved, and how much of it is out
	made      [][]T // the arrays take made this run
	need      int   // elements asked for this run
	peak      int   // the most any run asked for
}

// take returns a zeroed window of n elements, nil for none.
func (s *slab[T]) take(n int) []T {
	if n <= 0 {
		return nil
	}
	s.need += n
	for ; s.next < len(s.chunks); s.next, s.off = s.next+1, 0 {
		if c := s.chunks[s.next]; s.off+n <= len(c) {
			w := c[s.off : s.off+n : s.off+n]
			s.off += n
			clear(w)
			return w
		}
	}
	w := make([]T, n)
	s.made = append(s.made, w)
	return w
}

// reset readies the slab for a run whose windows may overlap any this one
// handed out.
func (s *slab[T]) reset() {
	s.peak = max(s.peak, s.need)
	switch {
	case len(s.made) == 0:
	case len(s.chunks) == 0:
		s.chunks = s.made
	default:
		s.chunks = [][]T{make([]T, s.peak)}
	}
	s.made, s.next, s.off, s.need = nil, 0, 0, 0
}

// pool is a free list of control-plane messages. put zeroes what it takes: a
// pooled message pins no stage, plan or error past its task, and a use after
// release reads zeros — a diverged golden, not another task's message.
type pool[T any] struct{ free []*T }

// poolBlock is how many messages a recycling pool allocates at once when its
// free list runs dry.
const poolBlock = 16

// get takes a message from the free list. When the list is empty a recycling
// pool (recycle, Engine.recycle) refills it with a block of poolBlock, one
// object for the lot; a pool that recycles nothing allocates each message on
// its own, so none is ever left over in its list.
func (p *pool[T]) get(recycle bool) *T {
	n := len(p.free)
	if n == 0 {
		if !recycle {
			return new(T)
		}
		block := make([]T, poolBlock)
		for i := range block[1:] {
			p.free = append(p.free, &block[i+1])
		}
		return &block[0]
	}
	v := p.free[n-1]
	p.free = p.free[:n-1]
	return v
}

// put takes v back if recycle (Engine.recycle) says so.
func (p *pool[T]) put(v *T, recycle bool) {
	if recycle {
		var zero T
		*v = zero
		p.free = append(p.free, v)
	}
}

// takePlan returns an empty buffer for reducePlan to fill, recycled if any is.
func (e *Engine) takePlan() (buf []segment) {
	sp := e.spares
	if n := len(sp.plans); n > 0 {
		buf, sp.plans = sp.plans[n-1], sp.plans[:n-1]
	}
	return buf
}

// releasePlan takes back, zeroed, the buffer of a finished task's fetch plan.
func (e *Engine) releasePlan(buf []segment) {
	if e.recycle && cap(buf) > 0 {
		clear(buf)
		e.spares.plans = append(e.spares.plans, buf[:0])
	}
}
