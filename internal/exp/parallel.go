package exp

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"sync"

	"sae/internal/engine"
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
// themselves, and the trace of the lowest call not yet joined writes through
// to s's. A nested Each forks its calls' sinks from its caller's and joins
// them there.
//
// The calls run in order, on s, when GOMAXPROCS is 1 or s's Audit cannot
// fork. A call waiting on a nested fan-out holds no run; only Run and
// RunMulti do (startRun).
func Each[T any](s Setup, n int, do func(s Setup, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	fa, forks := s.Audit.(engine.ForkableAudit)
	if runtime.GOMAXPROCS(0) == 1 || s.Audit != nil && !forks {
		for i := range n {
			var err error
			if out[i], err = do(s, i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	j := &joiner{s: s, audit: fa, calls: make([]call, n)}
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range n {
		slots <- struct{}{}
		cs, ok := j.start(i)
		if !ok {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			out[i], err = do(cs, i)
			<-slots
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
	trace *callTrace
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
		c.trace = &callTrace{dst: j.s.Trace}
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
// yet joined on; the one after them, if running, writes its trace through
// from now on.
func (j *joiner) end(i int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.calls[i].ended, j.calls[i].err = true, err
	for ; j.next < len(j.calls) && j.calls[j.next].ended; j.next++ {
		if j.failed != nil {
			continue // a loop would have stopped before this call
		}
		c := &j.calls[j.next]
		if c.trace != nil {
			if err := c.trace.through(); c.err == nil {
				c.err = err
			}
		}
		if c.sinks.Metrics != nil {
			j.s.Metrics.Join(c.sinks.Metrics)
		}
		if c.sinks.Audit != nil {
			j.audit.Join(c.sinks.Audit)
		}
		j.failed = c.err
	}
	if j.next < len(j.calls) && j.calls[j.next].trace != nil && j.failed == nil {
		// An error here is the call's, returned when it joins.
		_ = j.calls[j.next].trace.through()
	}
}

// callTrace is a call's trace writer: it holds what the call writes until
// every call before it has joined, then writes through to the shared writer.
type callTrace struct {
	mu     sync.Mutex
	dst    io.Writer
	buf    *bytes.Buffer
	direct bool  // writes go straight to dst
	err    error // the first error writing held bytes to dst
}

func (t *callTrace) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.direct {
		return t.dst.Write(p)
	}
	if t.buf == nil {
		t.buf = takeTraceBuffer()
	}
	return t.buf.Write(p)
}

// through writes what t holds to the shared writer, and every later Write
// straight there; it returns the first error writing held bytes.
func (t *callTrace) through() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.direct {
		t.direct = true
		if t.buf != nil {
			_, t.err = t.buf.WriteTo(t.dst)
			putTraceBuffer(t.buf)
			t.buf = nil
		}
	}
	return t.err
}

// traceBuffers holds emptied trace buffers, the last one on top: at most four
// per GOMAXPROCS, read when one is pushed, as many as nested fan-outs hold at
// once (telemetry's child registries are kept alike).
var traceBuffers struct {
	sync.Mutex
	bufs []*bytes.Buffer
}

// takeTraceBuffer takes the largest spare, so that the buffers a fan-out
// holds at once grow to their sizes once, not whenever a long trace draws a
// short buffer.
func takeTraceBuffer() *bytes.Buffer {
	traceBuffers.Lock()
	defer traceBuffers.Unlock()
	if len(traceBuffers.bufs) == 0 {
		return new(bytes.Buffer)
	}
	i := 0
	for j, b := range traceBuffers.bufs {
		if b.Cap() > traceBuffers.bufs[i].Cap() {
			i = j
		}
	}
	b := traceBuffers.bufs[i]
	traceBuffers.bufs = slices.Delete(traceBuffers.bufs, i, i+1)
	return b
}

func putTraceBuffer(b *bytes.Buffer) {
	b.Reset()
	traceBuffers.Lock()
	defer traceBuffers.Unlock()
	traceBuffers.bufs = append(traceBuffers.bufs, b)
	if extra := len(traceBuffers.bufs) - 4*runtime.GOMAXPROCS(0); extra > 0 {
		traceBuffers.bufs = slices.Delete(traceBuffers.bufs, 0, extra)
	}
}

// live counts the engine runs in progress in the process; runFreed wakes a
// run waiting for one to end.
var (
	liveMu   sync.Mutex
	runFreed = sync.NewCond(&liveMu)
	live     int
)

// startRun waits until fewer engine runs than GOMAXPROCS, read now, are in
// progress, and counts one more; endRun counts it out. So however many
// fan-outs nest, a process runs no more engines at once than it has
// processors, and holds no more runs' state.
func startRun() {
	liveMu.Lock()
	for live >= runtime.GOMAXPROCS(0) {
		runFreed.Wait()
	}
	live++
	liveMu.Unlock()
}

func endRun() {
	liveMu.Lock()
	live--
	liveMu.Unlock()
	runFreed.Signal()
}
