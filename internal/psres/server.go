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
	// such as the node-level iowait meter. It must not schedule or wake
	// anything on the kernel: a completion wakes its waiters before it
	// reports the new count.
	OnActiveChange func(n int)
}

// Server is a processor-sharing resource. It must only be used from
// simulation (kernel or process) context; it needs no locking because the
// kernel serializes execution.
//
// Every stream of one weight runs at the same rate, so the server keeps its
// rates per weight class rather than per stream: an arrival or departure
// re-plans the next completion in O(classes), not O(streams). Devices use
// two weights (1, and a disk's write weight).
type Server struct {
	k   *sim.Kernel
	cfg Config

	// slots holds the streams in service, by value, in arrival order (a
	// completion keeps the survivors' order), and the curve memo beside
	// them. It grows to the server's peak concurrency and is reused from
	// then on.
	slots []slot
	// classes holds one entry per distinct weight ever started, in first-use
	// order; a stream names its class by index. classBuf backs the first two,
	// so a device's server never allocates for them.
	classes  []class
	classBuf [2]class
	last     time.Duration
	next     sim.Event
	// nextAt is the absolute time s.next is scheduled for, valid while
	// s.next is active. When a recompute lands on the same nanosecond —
	// an arrival that provably doesn't move the next completion, e.g. a
	// cap-bound CPU stream joining idle cores — the reschedule is skipped
	// outright.
	nextAt time.Duration
	// onComp caches the completion callback so rescheduling the next
	// completion never reallocates the closure.
	onComp func()
	scale  float64 // multiplies the curve (gray-failure throttling); 1 = nominal

	busy           time.Duration // total time with >=1 active stream
	served         float64       // total units served
	activeIntegral float64       // ∫ n dt, in stream-seconds
}

// class is the state every stream of one weight shares.
type class struct {
	weight float64
	// rate is share × weight as of the last recompute: the per-stream rate
	// of every stream in the class.
	rate float64
	// minRem is the least remaining work among the class's streams (+Inf
	// when it has none): its first stream to drain is the one holding it.
	minRem float64
	n      int
}

type stream struct {
	remaining float64
	// proc is the single process waiting on this stream, woken directly
	// (Kernel.Wake) once the stream drains.
	proc  *sim.Proc
	class int32
	// done marks a drained stream between onCompletion's two passes.
	done bool
}

// slot is one place in a server's stream table: the stream in service there,
// while the slot lies below len(s.slots), and cfg.Curve(i+1) (unscaled) for
// slot i once computed (0 until then). Curves are pure, so a memoized value
// is bit-identical to recomputing it. The memo rides in the stream table
// because a server reaches n streams only once it has n slots: one
// allocation per growth pays for both. Only the stream half of a slot is
// ever moved or cleared.
type slot struct {
	stream
	curve float64
}

// NewServer returns a server bound to kernel k.
func NewServer(k *sim.Kernel, cfg Config) *Server {
	if cfg.Curve == nil {
		panic("psres: Config.Curve is required")
	}
	s := &Server{k: k, cfg: cfg, last: k.Now(), scale: 1}
	s.classes = s.classBuf[:0]
	s.onComp = s.onCompletion
	return s
}

// curveAt returns cfg.Curve(n), memoized in slot n-1; n <= cap(s.slots).
func (s *Server) curveAt(n int) float64 {
	sl := &s.slots[:n][n-1]
	if sl.curve == 0 {
		sl.curve = s.cfg.Curve(n)
	}
	return sl.curve
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
	c := s.classOf(weight)
	cl := &s.classes[c]
	cl.n++
	cl.minRem = min(cl.minRem, demand)
	n := len(s.slots)
	if n == cap(s.slots) {
		// Double the table; the copy keeps every memoized curve value.
		grown := make([]slot, n, max(2*n, 4))
		copy(grown, s.slots)
		s.slots = grown
	}
	s.slots = s.slots[:n+1]
	s.slots[n].stream = stream{remaining: demand, proc: p, class: c}
	s.notifyActive()
	s.recompute()
	return true
}

// classOf returns the index of weight's class, adding the class on its first
// use.
func (s *Server) classOf(weight float64) int32 {
	for i := range s.classes {
		if s.classes[i].weight == weight {
			return int32(i)
		}
	}
	s.classes = append(s.classes, class{weight: weight, minRem: math.Inf(1)})
	return int32(len(s.classes) - 1)
}

// Active returns the number of streams currently in service.
func (s *Server) Active() int { return len(s.slots) }

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
		s.cfg.OnActiveChange(len(s.slots))
	}
}

// advance integrates stream progress from s.last to now, and with it each
// class's minRem.
func (s *Server) advance() {
	now := s.k.Now()
	if now <= s.last {
		// Nothing to integrate — and most calls land here: the streams one
		// completion wakes re-queue at the same instant.
		s.last = now
		return
	}
	dt := (now - s.last).Seconds()
	if n := len(s.slots); n > 0 {
		s.busy += now - s.last
		s.activeIntegral += float64(float64(n) * dt)
		s.resetMinRem()
		for i := range s.slots {
			st := &s.slots[i]
			c := &s.classes[st.class]
			delta := c.rate * dt
			if delta > st.remaining {
				delta = st.remaining
			}
			st.remaining -= delta
			s.served += delta
			c.minRem = min(c.minRem, st.remaining)
		}
	}
	s.last = now
}

// resetMinRem empties every class's minRem ahead of a pass that recomputes it.
func (s *Server) resetMinRem() {
	for i := range s.classes {
		s.classes[i].minRem = math.Inf(1)
	}
}

// recompute reassigns rates after an arrival or departure and schedules the
// next completion. The pending completion event is rescheduled in place
// (same queue entry, fresh sequence number) rather than cancelled and
// reallocated — under stream churn the cancel-and-reschedule pattern left
// the kernel queue full of dead timers and allocated a new event per
// arrival.
//
// The next completion is the least remaining/rate over all streams, which is
// the least minRem/rate over the classes: a class's streams share one rate,
// and correctly rounded division by a positive rate is monotone, so the
// quotient of the least remainder is the least quotient, to the bit.
func (s *Server) recompute() {
	n := len(s.slots)
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
	for i := range s.classes {
		c := &s.classes[i]
		if c.n == 0 {
			continue
		}
		c.rate = share * c.weight
		if t := c.minRem / c.rate; t < minT {
			minT = t
		}
	}
	// Ceil to the next nanosecond so the completing stream is guaranteed
	// to have drained when the event fires. A completion past the end of
	// virtual time (a server slowed by 1e300, or a rate that underflowed)
	// saturates at sim.Never, where the kernel never fires it.
	d, at := sim.Never, sim.Never
	if ns := math.Ceil(minT * 1e9); ns < float64(sim.Never) {
		d = time.Duration(ns)
	}
	if now := s.k.Now(); d < sim.Never-now {
		at = now + d
	}
	if s.next.Active() {
		if at == s.nextAt {
			// The arrival/departure provably didn't change the next
			// completion instant; the queued event is already right.
			return
		}
		s.next.Reschedule(at)
	} else {
		s.next = s.k.At(at, s.onComp)
	}
	s.nextAt = at
}

// onCompletion removes drained streams, wakes their waiters and recomputes.
// One pass integrates progress, marks the drained streams and recomputes the
// survivors' minRem; a second compacts the drained ones out in stream order,
// crediting their residuals to served and waking their waiters in that
// order, before the next completion is scheduled: if another stream drains
// at this same timestamp, its completion event then fires after these
// wakeups, so waiters always observe Active() as of their own completion and
// wake in completion order. Waking before notifyActive is safe: Wake only
// enqueues, and an OnActiveChange observer must not touch the kernel queue.
func (s *Server) onCompletion() {
	s.next = sim.Event{}
	now := s.k.Now()
	elapsed := now - s.last
	dt := elapsed.Seconds()
	s.last = now
	if n := len(s.slots); n > 0 && dt > 0 {
		s.busy += elapsed
		s.activeIntegral += float64(float64(n) * dt)
	}
	s.resetMinRem()
	drained := false
	for i := range s.slots {
		st := &s.slots[i]
		c := &s.classes[st.class]
		if dt > 0 {
			delta := c.rate * dt
			if delta > st.remaining {
				delta = st.remaining
			}
			st.remaining -= delta
			s.served += delta
		}
		// A stream is done when its residual work is below what it
		// would serve in 2ns — i.e. float noise.
		if st.remaining <= float64(c.rate*2e-9)+1e-12 {
			st.done = true
			c.n--
			drained = true
		} else {
			c.minRem = min(c.minRem, st.remaining)
		}
	}
	if drained {
		kept := 0
		for i := range s.slots {
			st := s.slots[i].stream
			if !st.done {
				s.slots[kept].stream = st
				kept++
				continue
			}
			s.served += st.remaining
			s.k.Wake(st.proc)
		}
		for i := kept; i < len(s.slots); i++ {
			s.slots[i].stream = stream{}
		}
		s.slots = s.slots[:kept]
		s.notifyActive()
	}
	s.recompute()
}
