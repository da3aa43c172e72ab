package exp

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
)

// SetJoinOrder makes every fan-out end its calls in an order of the hold's
// choosing: each call is held once do returns, and once every call holding a
// slot of its fan-out is held, one of them is released to end (and so join
// what it can) before the next is chosen. seed 0 releases the highest index
// held, reversing the order as far as the width allows; any other seed draws
// the call from a PRNG of its own per fan-out, so the orders a seed takes are
// the same on every run. A held call has finished its engine run, so it holds
// no RunEngine slot and the hold cannot deadlock. orders lists each fan-out's
// release order, fan-outs in the order they first ended a call; restore
// ends calls in place again.
func SetJoinOrder(seed uint64) (orders func() []string, restore func()) {
	h := &hold{seed: seed, fans: map[*joiner]*fan{}}
	joinOrder = h.end
	return h.orders, func() { joinOrder = nil }
}

// hold holds the calls of every fan-out in the process.
type hold struct {
	seed uint64
	mu   sync.Mutex
	fans map[*joiner]*fan
	seen []*fan
}

// fan is one fan-out's held calls, ascending by index.
type fan struct {
	rng    *rand.Rand
	held   []heldCall
	ended  int
	ending bool // a released call has not finished its end yet
	order  []int
}

type heldCall struct {
	i    int
	wake chan struct{}
}

func (h *hold) end(j *joiner, i int, err error) {
	h.mu.Lock()
	f := h.fans[j]
	if f == nil {
		f = &fan{rng: rand.New(rand.NewPCG(h.seed, uint64(len(j.calls))))}
		h.fans[j] = f
		h.seen = append(h.seen, f)
	}
	c := heldCall{i, make(chan struct{})}
	at, _ := slices.BinarySearchFunc(f.held, i, func(c heldCall, i int) int { return c.i - i })
	f.held = slices.Insert(f.held, at, c)
	h.releaseOne(j, f)
	h.mu.Unlock()

	<-c.wake
	j.end(i, err)

	h.mu.Lock()
	f.ended++
	f.ending = false
	h.releaseOne(j, f)
	h.mu.Unlock()
}

// releaseOne releases one held call of f once every call holding a slot of
// its fan-out is held and no released call is still ending. Calls start in
// index order as slots free, so after k ends min(width, n-k) calls hold a
// slot, until a failure stops the starts: then any held call may go.
func (h *hold) releaseOne(j *joiner, f *fan) {
	if f.ending || len(f.held) == 0 {
		return
	}
	j.mu.Lock()
	failed := j.failed != nil
	j.mu.Unlock()
	if !failed && len(f.held) < min(cap(j.slots), len(j.calls)-f.ended) {
		return
	}
	k := len(f.held) - 1
	if h.seed != 0 {
		k = f.rng.IntN(len(f.held))
	}
	c := f.held[k]
	f.held = slices.Delete(f.held, k, k+1)
	f.order = append(f.order, c.i)
	f.ending = true
	close(c.wake)
}

func (h *hold) orders() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.seen))
	for k, f := range h.seen {
		out[k] = fmt.Sprint(f.order)
	}
	return out
}
