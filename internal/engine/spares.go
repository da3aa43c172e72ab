package engine

import (
	"time"

	"sae/internal/device"
	"sae/internal/sim"
	"sae/internal/spares"
)

// runSpares is the task-sized state one run leaves for the next engine in the
// process: the driver's task tables, pending tickets and duration ledgers, the
// shuffle registry's output lists and reduce-side aggregates, the executors'
// task contexts, the fetch-plan buffers, and the simulated machine's storage —
// the kernel's events, the devices' stream tables, the mailboxes' arrays,
// which carry the control-plane messages by value, and the executors' local
// launch queues. A run's reports, DFS and telemetry keep none of it, so once
// the simulation has drained it is unreachable; Wait gives it back to
// idleSpares as its very last act and a later recycling NewEngine takes it
// (DESIGN.md "What a run allocates"). Between the two it belongs to one
// engine alone.
type runSpares struct {
	tasks     slab[taskState]
	tickets   slab[int]
	durations slab[time.Duration]
	outs      slab[mapOutput]
	slots     slab[int32]
	shares    slab[nodeShare]
	rems      slab[int64]
	// contexts lists zeroed task contexts, linked through taskContext.free;
	// an executor whose own free list is empty takes from it.
	contexts *taskContext
	// plans are emptied fetch-plan buffers (takePlan, releasePlan).
	plans [][]segment

	// The machine's storage, which NewEngine hands out and takes out of here.
	// nodes is by node ID, an executor's too; an entry past a smaller cluster
	// keeps what a larger one left.
	kernel   sim.Storage
	toDriver sim.Buffers[driverMsg]
	nodes    []nodeSpares
}

// nodeSpares is what one node's devices and its executor give back: the
// mailbox's arrays and the local launch queue, the latter only when empty.
type nodeSpares struct {
	devices device.Spares
	inbox   sim.Buffers[execMsg]
	queue   sim.FIFO[launchMsg]
}

// idleSpares holds the spares runs gave back for the next engines to take.
var idleSpares = spares.New[*runSpares](1)

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
// run, the slabs start over, and the kernel, the devices, the mailboxes and
// the launch queues give back their storage — each only if idle, which after
// a drained run they are. It must come after everything the run does: another
// goroutine's engine may take the spares the instant they are back.
func (e *Engine) giveBackSpares() {
	sp := e.spares
	if n := len(e.executors) - len(sp.nodes); n > 0 {
		sp.nodes = append(sp.nodes, make([]nodeSpares, n)...)
	}
	for i, ex := range e.executors {
		ns := &sp.nodes[i]
		device.Release(&ns.devices, ex.node.CPU, ex.node.Disk, ex.node.NIC)
		ns.inbox = ex.inbox.Release()
		if ex.queue.Len() == 0 {
			ns.queue, ex.queue = ex.queue, sim.FIFO[launchMsg]{}
		}
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
	sp.shares.reset()
	sp.rems.reset()
	sp.kernel = e.k.Release()
	// Beats and pool updates that landed after the driver finished are never
	// read; dropping them leaves its mailbox idle.
	for _, ok := e.toDriver.TryRecv(); ok; _, ok = e.toDriver.TryRecv() {
	}
	sp.toDriver = e.toDriver.Release()
	idleSpares.Put(sp)
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
