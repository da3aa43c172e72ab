package exp

import (
	"bytes"
	"cmp"
	"runtime"
	"sync"

	"sae/internal/engine"
	"sae/internal/spares"
)

// Each calls do(0) … do(n-1) and returns their results by index, or the
// error of the lowest index that failed: what a loop stopping at the first
// error returns, since every run owns its whole simulated world. Up to
// GOMAXPROCS calls run side by side, started in index order.
//
// do receives the setup its call runs on: s with sinks of the call's own —
// a trace buffer, a child telemetry registry (telemetry.Registry.Fork), a
// child auditor (engine.ForkableAudit) — that join s's in index order as the
// calls end, so s's sinks receive what that loop would have given them. A call
// that starts once every call before it has joined runs on s's sinks
// themselves. A nested Each forks its calls' sinks from its caller's and joins
// them there.
//
// A call frees its slot as it ends, under the joiner's lock, so the next call
// starts after the joins its end made. When s's Audit cannot fork the fan-out
// is one call wide: each call starts after the one before it has joined and
// runs on s, as every call does at GOMAXPROCS 1. A call waiting on
// a nested fan-out holds no run; only an engine run does (RunEngine).
func Each[T any](s Setup, n int, do func(s Setup, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	fa, forks := s.Audit.(engine.ForkableAudit)
	width := runtime.GOMAXPROCS(0)
	if s.Audit != nil && !forks {
		width = 1
	}
	j := &joiner{s: s, audit: fa, calls: make([]call, n), slots: make(chan struct{}, width)}
	var wg sync.WaitGroup
	for i := range n {
		j.slots <- struct{}{}
		cs, ok := j.start(i)
		if !ok {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			out[i], err = do(cs, i)
			j.end(i, err)
		}()
	}
	wg.Wait()
	if j.failed != nil {
		return nil, j.failed
	}
	return out, nil
}

// WithSinks returns s with the Trace, Metrics and Audit of from: how a call of
// Each runs a setup derived from the one it fanned out, on the call's sinks.
func (s Setup) WithSinks(from Setup) Setup {
	s.Trace, s.Metrics, s.Audit = from.Trace, from.Metrics, from.Audit
	return s
}

// joiner forks a fan-out's sinks per call and joins them back into its
// setup's in index order.
type joiner struct {
	s     Setup
	audit engine.ForkableAudit
	// slots holds one token per call started and not yet ended.
	slots chan struct{}
	mu    sync.Mutex
	calls []call
	// next is the lowest call not joined; failed is the error of the first
	// joined call that failed, after which no call starts or joins.
	next   int
	failed error
}

// call is one call's state: its forked sinks (none while it runs on the
// setup's own) and, once it has ended, its error.
type call struct {
	ended bool
	err   error
	trace *bytes.Buffer
	sinks Setup
}

// start returns the setup call i runs on, or false once a call before it has
// failed.
func (j *joiner) start(i int) (Setup, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return Setup{}, false
	}
	c := &j.calls[i]
	if i == j.next {
		return j.s, true
	}
	if j.s.Trace != nil {
		// The largest spare, so that the buffers a fan-out holds at once grow
		// to their sizes once, not whenever a long trace draws a short buffer.
		if c.trace, _ = spareTraces.TakeMax(byCap); c.trace == nil {
			c.trace = new(bytes.Buffer)
		}
		c.sinks.Trace = c.trace
	}
	if j.s.Metrics != nil {
		c.sinks.Metrics = j.s.Metrics.Fork()
	}
	if j.audit != nil {
		c.sinks.Audit = j.audit.Fork()
	}
	return j.s.WithSinks(c.sinks), true
}

// end records call i's error and joins every ended call from the lowest not
// yet joined on, splicing in its trace; an error writing it is the call's.
// It frees the call's slot under j.mu, so the next call's start sees the join.
func (j *joiner) end(i int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	<-j.slots
	j.calls[i].ended, j.calls[i].err = true, err
	for ; j.next < len(j.calls) && j.calls[j.next].ended; j.next++ {
		if j.failed != nil {
			continue // a loop would have stopped before this call
		}
		c := &j.calls[j.next]
		if c.trace != nil {
			if _, err := c.trace.WriteTo(j.s.Trace); c.err == nil {
				c.err = err
			}
			c.trace.Reset()
			spareTraces.Put(c.trace)
		}
		if c.sinks.Metrics != nil {
			j.s.Metrics.Join(c.sinks.Metrics)
		}
		if c.sinks.Audit != nil {
			j.audit.Join(c.sinks.Audit)
		}
		j.failed = c.err
	}
}

// spareTraces holds emptied trace buffers for the calls of later fan-outs.
var spareTraces = spares.New[*bytes.Buffer](4)

// byCap orders trace buffers by capacity.
func byCap(a, b *bytes.Buffer) int { return cmp.Compare(a.Cap(), b.Cap()) }

// live counts the engine runs in progress in the process; runFreed wakes a
// run waiting for one to end.
var (
	liveMu   sync.Mutex
	runFreed = sync.NewCond(&liveMu)
	live     int
)

// RunEngine builds an engine from opts, lets submit hand it its jobs, and
// waits for the run; the engine it returns has ended. It waits first until
// fewer engine runs than GOMAXPROCS, read now, are in progress in the
// process, and counts its own out once the run has ended: so however many
// fan-outs nest, a process runs no more engines at once than it has
// processors, and holds no more runs' state. Every engine exp and the
// scenario matrices run goes through here.
func RunEngine(opts engine.Options, submit func(*engine.Engine) error) (*engine.Engine, error) {
	liveMu.Lock()
	for live >= runtime.GOMAXPROCS(0) {
		runFreed.Wait()
	}
	live++
	liveMu.Unlock()
	defer func() {
		liveMu.Lock()
		live--
		liveMu.Unlock()
		runFreed.Signal()
	}()
	e, err := engine.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	if err := submit(e); err != nil {
		return nil, err
	}
	return e, e.Wait()
}
