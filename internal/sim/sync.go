package sim

import "time"

// FIFO is a slice-backed queue that keeps its backing array: Pop advances a
// head index rather than re-slicing (q = q[1:] walks the slice off its array,
// so the next append reallocates), and the array rewinds whenever the queue
// drains — which the simulator's queues do constantly; between two drains the
// array holds every value pushed. The zero value is an empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Push appends v.
func (q *FIFO[T]) Push(v T) { q.items = append(q.items, v) }

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

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
	// flight holds messages in transit in send order. Their arrival events
	// fire in that order too, so each delivers the head and needs no closure:
	// Send admits only a message due no earlier than latest, the last admitted.
	flight  FIFO[T]
	latest  time.Duration
	deliver func() // m.land, bound once
}

// NewMailbox returns an empty mailbox bound to k.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	m := &Mailbox[T]{k: k}
	m.deliver = m.land
	return m
}

// Send enqueues msg after delay d (modelling transmission latency) and wakes
// one receiver. Send never blocks and may be called from event context. It
// schedules one kernel event and, at a constant delay, allocates nothing.
func (m *Mailbox[T]) Send(d time.Duration, msg T) {
	at := m.k.now + d
	if at < m.latest {
		// Overtakes a message in flight: its own event carries it.
		m.k.After(d, func() { m.Put(msg) })
		return
	}
	m.k.After(d, m.deliver) // first: a negative d panics here
	m.latest = at
	m.flight.Push(msg)
}

// land is the arrival of the oldest message in flight.
func (m *Mailbox[T]) land() { m.Put(m.flight.Pop()) }

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

// Len returns the number of queued messages.
func (m *Mailbox[T]) Len() int { return m.queue.Len() }
