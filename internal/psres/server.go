// Package psres implements a processor-sharing server in virtual time.
//
// A Server models a contended resource (disk, NIC, CPU) whose aggregate
// service rate depends on the number of concurrent streams: rate = Curve(n).
// Capacity is divided equally among active streams (optionally capped per
// stream, and scaled by per-stream weights for asymmetric operations such as
// writes that cost more than reads). This is the standard fluid approximation
// of time-sliced devices and is what makes I/O-contention effects — the
// subject of the paper — emerge from first principles: an HDD whose Curve
// falls with n serves *less total work* the more threads hammer it.
package psres

import (
	"fmt"
	"math"
	"time"

	"sae/internal/sim"
)

// Curve maps the number of concurrent streams to the aggregate service rate
// in units/second. It must be strictly positive for n >= 1, and must be a
// pure function of n: the server memoizes it per stream count, because
// device curves interpolate on a log scale and the transcendental math would
// otherwise dominate every arrival and departure.
type Curve func(n int) float64

// Flat returns a curve with constant aggregate rate regardless of
// concurrency (e.g. a network link).
func Flat(rate float64) Curve {
	return func(int) float64 { return rate }
}

// Config configures a Server.
type Config struct {
	// Name identifies the server in diagnostics.
	Name string
	// Curve gives the aggregate rate for n concurrent streams. Required.
	Curve Curve
	// PerStreamCap limits the rate of any single stream (0 = unlimited).
	// A CPU uses cap=1 core so one thread can never use two cores.
	PerStreamCap float64
	// OnActiveChange, if set, is called whenever the number of active
	// streams changes, with the new count. Used for joint integrators
	// such as the node-level iowait meter.
	OnActiveChange func(n int)
}

// Server is a processor-sharing resource. It must only be used from
// simulation (kernel or process) context; it needs no locking because the
// kernel serializes execution.
type Server struct {
	k   *sim.Kernel
	cfg Config

	streams []*stream
	last    time.Duration
	next    sim.Event
	// nextAt is the absolute time s.next is scheduled for, valid while
	// s.next is active. When a recompute lands on the same nanosecond —
	// an arrival that provably doesn't move the next completion, e.g. a
	// cap-bound CPU stream joining idle cores — the reschedule is skipped
	// outright.
	nextAt time.Duration
	// onComp caches the completion callback so rescheduling the next
	// completion never reallocates the closure.
	onComp func()
	// freeStream recycles stream structs (one per Start call) and woken is
	// the completion pass's reusable scratch; together they make the
	// Serve/complete cycle allocation-free in steady state.
	freeStream *stream
	woken      []*stream
	scale      float64 // multiplies the curve (gray-failure throttling); 1 = nominal
	// curveMemo caches cfg.Curve(n) by n (unscaled); curves are pure, so a
	// cached value is bit-identical to recomputing it.
	curveMemo []float64

	busy           time.Duration // total time with >=1 active stream
	served         float64       // total units served
	activeIntegral float64       // ∫ n dt, in stream-seconds
}

// streamBlock is how many stream structs a server allocates when its free list
// runs dry. A server's list grows to its peak concurrency and then stops, so
// this trades objects (one per block, not per stream) for slack (at most
// streamBlock-1 idle structs per server).
const streamBlock = 4

type stream struct {
	remaining float64
	weight    float64
	rate      float64
	// proc is the single process waiting on this stream; it is
	// woken directly (Kernel.Wake) rather than through a per-stream Signal
	// allocation.
	proc *sim.Proc
	next *stream // free-list link
}

// NewServer returns a server bound to kernel k.
func NewServer(k *sim.Kernel, cfg Config) *Server {
	if cfg.Curve == nil {
		panic("psres: Config.Curve is required")
	}
	s := &Server{k: k, cfg: cfg, last: k.Now(), scale: 1}
	s.onComp = s.onCompletion
	return s
}

// curveAt returns cfg.Curve(n), memoized.
func (s *Server) curveAt(n int) float64 {
	if n < len(s.curveMemo) {
		if v := s.curveMemo[n]; v != 0 {
			return v
		}
	} else {
		memo := make([]float64, n+n/2+8)
		copy(memo, s.curveMemo)
		s.curveMemo = memo
	}
	v := s.cfg.Curve(n)
	s.curveMemo[n] = v
	return v
}

// SetRateScale rescales the server's aggregate service rate (and per-stream
// cap) to scale × nominal, re-planning any in-flight streams from the current
// instant. Gray-failure injection uses this to degrade a device mid-run;
// scale 1 restores nominal service.
func (s *Server) SetRateScale(scale float64) {
	if scale <= 0 || math.IsNaN(scale) {
		panic(fmt.Sprintf("psres %s: non-positive rate scale %v", s.cfg.Name, scale))
	}
	if scale == s.scale {
		return
	}
	s.advance()
	s.scale = scale
	s.recompute()
}

// RateScale returns the current service-rate scale (1 = nominal).
func (s *Server) RateScale() float64 { return s.scale }

// Serve blocks p until demand units have been served. Weight scales this
// stream's share of capacity (1 = normal; 0.5 = progresses at half the fair
// share, modelling e.g. writes that cost twice as much as reads).
func (s *Server) Serve(p *sim.Proc, demand, weight float64) {
	if s.Start(p, demand, weight) {
		p.Park()
	}
}

// Start is Serve without the park: it queues a stream of demand units for p
// and reports whether it did — false for an empty demand, which owes p no
// wake. The server wakes p (Kernel.Wake) once the stream has drained; until
// then p must not run, which a coroutine process ensures by parking and a
// stackless one by returning from Step.
func (s *Server) Start(p *sim.Proc, demand, weight float64) bool {
	if demand <= 0 {
		return false
	}
	if weight <= 0 {
		panic(fmt.Sprintf("psres %s: non-positive weight %v", s.cfg.Name, weight))
	}
	s.advance()
	if s.freeStream == nil {
		// Out of stream structs: make streamBlock at once, chained.
		block := make([]stream, streamBlock)
		for i := range block[:streamBlock-1] {
			block[i].next = &block[i+1]
		}
		s.freeStream = &block[0]
	}
	st := s.freeStream
	s.freeStream, st.next = st.next, nil
	st.remaining, st.weight, st.proc = demand, weight, p
	s.streams = append(s.streams, st)
	s.notifyActive()
	s.recompute()
	return true
}

// Active returns the number of streams currently in service.
func (s *Server) Active() int { return len(s.streams) }

// Stats is a snapshot of cumulative server statistics. Differences between
// two snapshots give windowed measurements.
type Stats struct {
	// Busy is the total virtual time the server had at least one stream.
	Busy time.Duration
	// Served is the total units (e.g. bytes) served.
	Served float64
	// ActiveIntegral is ∫ n(t) dt in stream-seconds; divided by a window
	// it gives the average queue depth.
	ActiveIntegral float64
	// At is the time of the snapshot.
	At time.Duration
}

// Snapshot advances internal integrals to the current time and returns them.
func (s *Server) Snapshot() Stats {
	s.advance()
	return Stats{Busy: s.busy, Served: s.served, ActiveIntegral: s.activeIntegral, At: s.k.Now()}
}

// UtilizationBetween returns the fraction of time the server was busy
// between two snapshots.
func UtilizationBetween(a, b Stats) float64 {
	w := (b.At - a.At).Seconds()
	if w <= 0 {
		return 0
	}
	return (b.Busy - a.Busy).Seconds() / w
}

func (s *Server) notifyActive() {
	if s.cfg.OnActiveChange != nil {
		s.cfg.OnActiveChange(len(s.streams))
	}
}

// advance integrates stream progress from s.last to now.
func (s *Server) advance() {
	now := s.k.Now()
	if now <= s.last {
		// Nothing to integrate — and most calls land here: the streams one
		// completion wakes re-queue at the same instant.
		s.last = now
		return
	}
	dt := (now - s.last).Seconds()
	if n := len(s.streams); n > 0 {
		s.busy += now - s.last
		s.activeIntegral += float64(n) * dt
		for _, st := range s.streams {
			delta := st.rate * dt
			if delta > st.remaining {
				delta = st.remaining
			}
			st.remaining -= delta
			s.served += delta
		}
	}
	s.last = now
}

// recompute reassigns rates after an arrival or departure and schedules the
// next completion. The pending completion event is rescheduled in place
// (same queue entry, fresh sequence number) rather than cancelled and
// reallocated — under stream churn the cancel-and-reschedule pattern left
// the kernel queue full of dead timers and allocated a new event per
// arrival.
func (s *Server) recompute() {
	n := len(s.streams)
	if n == 0 {
		s.next.Cancel()
		s.next = sim.Event{}
		return
	}
	total := s.scale * s.curveAt(n)
	if total <= 0 || math.IsNaN(total) {
		panic(fmt.Sprintf("psres %s: curve(%d) = %v", s.cfg.Name, n, total))
	}
	share := total / float64(n)
	if lim := s.scale * s.cfg.PerStreamCap; s.cfg.PerStreamCap > 0 && share > lim {
		share = lim
	}
	minT := math.Inf(1)
	for _, st := range s.streams {
		st.rate = share * st.weight
		if t := st.remaining / st.rate; t < minT {
			minT = t
		}
	}
	// Ceil to the next nanosecond so the completing stream is guaranteed
	// to have drained when the event fires.
	d := time.Duration(math.Ceil(minT * 1e9))
	if d < 0 {
		d = 0
	}
	at := s.k.Now() + d
	if s.next.Active() {
		if at == s.nextAt {
			// The arrival/departure provably didn't change the next
			// completion instant; the queued event is already right.
			return
		}
		s.next.Reschedule(at)
	} else {
		s.next = s.k.After(d, s.onComp)
	}
	s.nextAt = at
}

// onCompletion removes drained streams, wakes their waiters and recomputes.
// Progress integration and drain classification run in one pass, and the
// waiters are woken from the freshly compacted stream set *before* the next
// completion is scheduled: if another stream drains at this same timestamp,
// its completion event then fires after these wakeups, so waiters always
// observe Active() as of their own completion and wake in completion order.
func (s *Server) onCompletion() {
	s.next = sim.Event{}
	now := s.k.Now()
	elapsed := now - s.last
	dt := elapsed.Seconds()
	s.last = now
	if n := len(s.streams); n > 0 && dt > 0 {
		s.busy += elapsed
		s.activeIntegral += float64(n) * dt
	}
	kept := s.streams[:0]
	woken := s.woken[:0]
	for _, st := range s.streams {
		if dt > 0 {
			delta := st.rate * dt
			if delta > st.remaining {
				delta = st.remaining
			}
			st.remaining -= delta
			s.served += delta
		}
		// A stream is done when its residual work is below what it
		// would serve in 2ns — i.e. float noise.
		if st.remaining <= st.rate*2e-9+1e-12 {
			woken = append(woken, st)
		} else {
			kept = append(kept, st)
		}
	}
	for _, st := range woken {
		s.served += st.remaining
		st.remaining = 0
	}
	for i := len(kept); i < len(s.streams); i++ {
		s.streams[i] = nil
	}
	s.streams = kept
	if len(woken) > 0 {
		s.notifyActive()
	}
	for _, st := range woken {
		s.k.Wake(st.proc)
		st.proc = nil
		st.next = s.freeStream
		s.freeStream = st
	}
	s.woken = woken[:0]
	s.recompute()
}
