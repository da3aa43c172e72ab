package psres

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sae/internal/sim"
)

// refServer is the per-stream processor-sharing server the class-rate Server
// replaced, kept as the reference it is held to: every stream carries its own
// rate, recompute divides every stream's remaining work by it, and drained
// streams are collected into a list, credited, and woken after the active
// count is published. Allocation and memoization are left out; they do not
// change what is simulated.
type refServer struct {
	k      *sim.Kernel
	cfg    Config
	scale  float64
	onComp func()

	streams []*refStream
	last    time.Duration
	next    sim.Event
	nextAt  time.Duration

	busy           time.Duration
	served         float64
	activeIntegral float64
}

type refStream struct {
	remaining, weight, rate float64
	proc                    *sim.Proc
}

func newRefServer(k *sim.Kernel, cfg Config) *refServer {
	s := &refServer{k: k, cfg: cfg, last: k.Now(), scale: 1}
	s.onComp = s.onCompletion
	return s
}

func (s *refServer) SetRateScale(scale float64) {
	if scale == s.scale {
		return
	}
	s.advance()
	s.scale = scale
	s.recompute()
}

func (s *refServer) Start(p *sim.Proc, demand, weight float64) bool {
	if demand <= 0 {
		return false
	}
	s.advance()
	s.streams = append(s.streams, &refStream{remaining: demand, weight: weight, proc: p})
	s.notifyActive()
	s.recompute()
	return true
}

func (s *refServer) Active() int { return len(s.streams) }

func (s *refServer) Snapshot() Stats {
	s.advance()
	return Stats{Busy: s.busy, Served: s.served, ActiveIntegral: s.activeIntegral, At: s.k.Now()}
}

func (s *refServer) notifyActive() {
	if s.cfg.OnActiveChange != nil {
		s.cfg.OnActiveChange(len(s.streams))
	}
}

func (s *refServer) advance() {
	now := s.k.Now()
	if now <= s.last {
		s.last = now
		return
	}
	dt := (now - s.last).Seconds()
	if n := len(s.streams); n > 0 {
		s.busy += now - s.last
		s.activeIntegral += float64(float64(n) * dt)
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

func (s *refServer) recompute() {
	n := len(s.streams)
	if n == 0 {
		s.next.Cancel()
		s.next = sim.Event{}
		return
	}
	share := s.scale * s.cfg.Curve(n) / float64(n)
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
	d := time.Duration(math.Ceil(minT * 1e9))
	if d < 0 {
		d = 0
	}
	at := s.k.Now() + d
	if s.next.Active() {
		if at == s.nextAt {
			return
		}
		s.next.Reschedule(at)
	} else {
		s.next = s.k.After(d, s.onComp)
	}
	s.nextAt = at
}

func (s *refServer) onCompletion() {
	s.next = sim.Event{}
	now := s.k.Now()
	elapsed := now - s.last
	dt := elapsed.Seconds()
	s.last = now
	if n := len(s.streams); n > 0 && dt > 0 {
		s.busy += elapsed
		s.activeIntegral += float64(float64(n) * dt)
	}
	var kept, woken []*refStream
	for _, st := range s.streams {
		if dt > 0 {
			delta := st.rate * dt
			if delta > st.remaining {
				delta = st.remaining
			}
			st.remaining -= delta
			s.served += delta
		}
		if st.remaining <= float64(st.rate*2e-9)+1e-12 {
			woken = append(woken, st)
		} else {
			kept = append(kept, st)
		}
	}
	for _, st := range woken {
		s.served += st.remaining
	}
	s.streams = kept
	if len(woken) > 0 {
		s.notifyActive()
	}
	for _, st := range woken {
		s.k.Wake(st.proc)
	}
	s.recompute()
}

// psServer is what a history drives: the Server or the reference.
type psServer interface {
	Start(p *sim.Proc, demand, weight float64) bool
	SetRateScale(scale float64)
	Snapshot() Stats
	Active() int
}

// histOp is one step of a generated history, at virtual time at: a stream of
// demand at weight (re-served again times more, halving, the instant it
// drains), a rate-scale change, or a snapshot.
type histOp struct {
	at             time.Duration
	demand, weight float64
	again          int
	scale          float64
	snap           bool
}

// history is a seeded server configuration and the operations run on it.
type history struct {
	cfg Config
	ops []histOp
}

// genHistory draws history seed: a flat, falling or capped-CPU curve, one to
// three weights, arrivals on a coarse time grid (so many share an instant)
// with demands half from a short list (so many drain together) and half
// random (so the residuals a drain credits to Served are not all zero — the
// order they are added in shows in its bits), with rate-scale changes and
// snapshots mixed in.
func genHistory(seed int64) history {
	r := rand.New(rand.NewSource(seed))
	var h history
	switch r.Intn(3) {
	case 0:
		h.cfg = Config{Name: "flat", Curve: Flat(10 + float64(r.Intn(90)))}
	case 1:
		peak := 50 + float64(50*r.Float64())
		h.cfg = Config{Name: "hdd", Curve: func(n int) float64 { return peak * math.Pow(float64(n), -0.4) }}
	default:
		cores := 1 + r.Intn(8)
		h.cfg = Config{Name: "cpu", PerStreamCap: 1, Curve: func(n int) float64 {
			return math.Min(float64(n), float64(cores)) + float64(0.3*math.Max(0, math.Min(float64(n-cores), float64(cores))))
		}}
	}
	weights := []float64{1, 0.85, 0.62, 2, 0.3}
	r.Shuffle(len(weights)-1, func(i, j int) { weights[i+1], weights[j+1] = weights[j+1], weights[i+1] })
	weights = weights[:1+r.Intn(3)]
	demands := []float64{0.5, 1, 1.5, 2, 4, 10}
	grid := time.Duration(1+r.Intn(200)) * time.Millisecond
	for range 10 + r.Intn(50) {
		op := histOp{at: time.Duration(r.Intn(40)) * grid}
		switch x := r.Intn(20); {
		case x == 0:
			op.scale = []float64{0.25, 0.5, 1, 2, 3}[r.Intn(5)]
		case x == 1:
			op.snap = true
		default:
			op.weight = weights[r.Intn(len(weights))]
			op.demand = demands[r.Intn(len(demands))]
			if r.Intn(2) == 0 {
				op.demand = 10 * r.Float64()
			}
			if r.Intn(30) == 0 {
				op.demand = 0
			}
			op.again = r.Intn(3)
		}
		h.ops = append(h.ops, op)
	}
	return h
}

// histWaiter is a stackless process serving one op's streams back to back:
// again+1 of them, each half the last, the next queued the instant the
// previous drains.
type histWaiter struct {
	proc           sim.Proc
	s              psServer
	id             int
	demand, weight float64
	again          int
	started        bool
	log            *[]string
}

func (w *histWaiter) Step() {
	if w.started {
		w.served()
	}
	w.started = true
	for w.again >= 0 {
		if w.s.Start(&w.proc, w.demand, w.weight) {
			return
		}
		// An empty demand owes no wake: it is served on the spot.
		w.served()
	}
}

// served logs a drained stream and readies the next one.
func (w *histWaiter) served() {
	*w.log = append(*w.log, fmt.Sprintf("%v wake %d active %d", w.proc.Now(), w.id, w.s.Active()))
	w.again--
	w.demand /= 2
}

// runHistory replays h on the server mk builds and returns its log: every wake
// with its instant and the active count seen, every active-count change and
// snapshot, bit for bit, and the kernel's fired-event count.
func runHistory(h history, mk func(*sim.Kernel, Config) psServer) []string {
	k := sim.NewKernel()
	var log []string
	cfg := h.cfg
	cfg.OnActiveChange = func(n int) { log = append(log, fmt.Sprintf("%v active %d", k.Now(), n)) }
	s := mk(k, cfg)
	snap := func() {
		st := s.Snapshot()
		log = append(log, fmt.Sprintf("%v snap busy %d served %x integral %x", st.At, st.Busy,
			math.Float64bits(st.Served), math.Float64bits(st.ActiveIntegral)))
	}
	for i, op := range h.ops {
		switch {
		case op.scale > 0:
			k.At(op.at, func() { s.SetRateScale(op.scale) })
		case op.snap:
			k.At(op.at, snap)
		default:
			w := &histWaiter{s: s, id: i, demand: op.demand, weight: op.weight, again: op.again, log: &log}
			k.At(op.at, func() { k.GoStepper(&w.proc, "w", w) })
		}
	}
	k.Run()
	snap()
	return append(log, fmt.Sprintf("fired %d", k.FiredEvents()))
}

// TestClassRatesMatchPerStreamReference drives 600 seeded histories through
// the class-rate Server and the per-stream reference and requires the same
// log: wake instants and order, the active count each waiter sees, every
// OnActiveChange, and Busy, Served and ActiveIntegral bit for bit at every
// snapshot and at the end. The histories mix one to three weights,
// same-instant arrivals and re-arrivals, streams that drain together, empty
// demands, rate-scale changes and capped streams.
func TestClassRatesMatchPerStreamReference(t *testing.T) {
	const histories = 600
	wakes, multi := 0, 0
	for seed := int64(0); seed < histories; seed++ {
		h := genHistory(seed)
		got := runHistory(h, func(k *sim.Kernel, c Config) psServer { return NewServer(k, c) })
		want := runHistory(h, func(k *sim.Kernel, c Config) psServer { return newRefServer(k, c) })
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d, line %d:\n got %s\nwant %s", seed, i, got[i], want[i])
			}
		}
		prev := ""
		for _, l := range got {
			if at, _, ok := strings.Cut(l, " wake "); ok {
				wakes++
				if at == prev {
					multi++
				}
				prev = at
			}
		}
	}
	// The generator must reach what the test is about.
	if wakes < 10*histories || multi < histories {
		t.Fatalf("%d wakes, %d sharing an instant with the previous: the histories are too thin", wakes, multi)
	}
}
