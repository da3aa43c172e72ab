package sim

import "time"

// FIFO is a slice-backed queue that keeps its backing array: Pop advances a
// head index rather than re-slicing (q = q[1:] walks the slice off its array,
// so the next append reallocates), the array rewinds whenever the queue
// drains — which the simulator's queues do constantly — and a full one
// shifts its values down rather than grow. The zero value is an empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if len(q.items) == cap(q.items) {
		q.items, q.head = shiftDown(q.items, q.head)
	}
	q.items = append(q.items, v)
}

// shiftDown moves items[head:] to the front of a full array whose head passed
// half its length, zeroing the vacated slots, and returns the slice and head.
func shiftDown[T any](items []T, head int) ([]T, int) {
	if head == 0 || 2*head < len(items) {
		return items, head
	}
	n := copy(items, items[head:])
	clear(items[n:])
	return items[:n], 0
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// back returns the newest value, or nil when the queue is empty.
func (q *FIFO[T]) back() *T {
	if q.Len() == 0 {
		return nil
	}
	return &q.items[len(q.items)-1]
}

// Pop removes and returns the oldest value; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release what a queued pointer holds
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// Mailbox is an unbounded FIFO message queue between processes. Receivers
// wait until a message arrives. It models an asynchronous message channel
// (e.g. an RPC endpoint) in virtual time.
type Mailbox[T any] struct {
	k     *Kernel
	queue FIFO[T]
	// waiters are the receivers owed a wake, longest-waiting first.
	waiters FIFO[*Proc]
	// flight holds messages in transit in send order, runs their arrival
	// events, which fire in that order too: each delivers from the head, with
	// no closure. Send admits only a message due no earlier than the newest.
	flight  FIFO[T]
	runs    FIFO[run]
	deliver func() // m.land, bound once
}

// run is a pending arrival event of a mailbox: n messages sent at sentAt.
type run struct {
	at, sentAt time.Duration
	n          int
}

// NewMailbox returns an empty mailbox bound to k.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	m := &Mailbox[T]{k: k}
	m.deliver = m.land
	return m
}

// Send enqueues msg after delay d (modelling transmission latency) and wakes
// one receiver. Send never blocks and may be called from event context. A
// message sent at the instant and with the positive delay of the newest run
// joins it: only events scheduled between the two sends fire in between, and
// none is a wake, which resumes a receiver (without delay, one could be; from
// another instant, a cross-shard Put could). Any other send schedules one
// kernel event. At a constant delay Send allocates nothing.
func (m *Mailbox[T]) Send(d time.Duration, msg T) {
	at := m.k.now + d
	switch r := m.runs.back(); {
	case r != nil && at < r.at:
		m.overtake(d, msg)
		return
	case r != nil && d > 0 && at == r.at && m.k.now == r.sentAt:
		r.n++
	default:
		m.k.After(d, m.deliver) // first: a negative d panics here
		m.runs.Push(run{at, m.k.now, 1})
	}
	m.flight.Push(msg)
}

// overtake sends msg, due before a message in flight, on an event of its own.
// The closure lives here, not in Send: Go moves a captured variable larger
// than 128 bytes to the heap as the capturing function is entered, on every
// path through it.
func (m *Mailbox[T]) overtake(d time.Duration, msg T) {
	m.k.After(d, func() { m.Put(msg) })
}

// land is the arrival of the oldest run, put in send order.
func (m *Mailbox[T]) land() {
	for range m.runs.Pop().n {
		m.Put(m.flight.Pop())
	}
}

// Put enqueues msg at the current instant — the arrival half of Send
// without the latency half — and wakes the longest-waiting receiver, if any,
// at the current instant. Shard coordinators use it to inject a cross-shard
// message whose transmission delay was already served on the sending shard's
// side of the lookahead barrier.
func (m *Mailbox[T]) Put(msg T) {
	m.queue.Push(msg)
	if m.waiters.Len() > 0 {
		m.k.afterProc(0, m.waiters.Pop())
	}
}

// Recv dequeues the next message, parking p until one is available.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for {
		if msg, ok := m.TryRecv(); ok {
			return msg
		}
		m.StartRecv(p)
		p.Park()
	}
}

// StartRecv registers p for one wake when the next message arrives, for a
// stackless process that found TryRecv empty and is about to return from
// Step.
func (m *Mailbox[T]) StartRecv(p *Proc) { m.waiters.Push(p) }

// TryRecv dequeues a message if one is queued, without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) {
	if m.queue.Len() == 0 {
		var zero T
		return zero, false
	}
	return m.queue.Pop(), true
}

// Buffers are the arrays of an idle mailbox, for a mailbox of a later run to
// start with (Mailbox.Release, Mailbox.Reuse). The zero value holds nothing.
type Buffers[T any] struct {
	queue, flight []T
	runs          []run
}

// Release takes m's arrays, which popping left zeroed, and leaves m none; a
// mailbox with a message queued or a delivery pending is not idle and keeps
// them.
func (m *Mailbox[T]) Release() Buffers[T] {
	if m.queue.Len() > 0 || m.runs.Len() > 0 {
		return Buffers[T]{}
	}
	b := Buffers[T]{m.queue.items, m.flight.items, m.runs.items}
	m.queue, m.flight, m.runs = FIFO[T]{}, FIFO[T]{}, FIFO[run]{}
	return b
}

// Reuse hands m, before its first message, arrays another mailbox released.
func (m *Mailbox[T]) Reuse(b Buffers[T]) {
	m.queue.items, m.flight.items, m.runs.items = b.queue, b.flight, b.runs
}
