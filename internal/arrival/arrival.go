// Package arrival generates deterministic open-loop job traffic for the
// simulator. An open-loop generator decides submission instants independently
// of system state — jobs arrive whether or not the cluster keeps up — which is
// what exposes queueing delay and tail latency under load (a closed loop that
// waits for completions hides exactly the overload the autoscaler must
// handle). Because arrivals are system-independent, the whole schedule can be
// drawn up front from one seeded PRNG: the engine then admits each job at its
// scheduled sim instant and same-seed runs stay byte-identical.
//
// Rate processes compose from a small vocabulary: Poisson(λ) for steady load,
// Bursty for on/off modulation, and Diurnal for piecewise day-shaped rates.
// Non-homogeneous processes are sampled by Lewis–Shedler thinning of a
// homogeneous Poisson process at the peak rate.
package arrival

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Process is a (possibly time-varying) arrival-rate function. Rate reports
// the instantaneous rate in jobs/second at sim time t; Peak bounds Rate from
// above and is the envelope rate used for thinning.
type Process interface {
	Rate(t time.Duration) float64
	Peak() float64
	Name() string
}

// Poisson is a homogeneous Poisson process: constant rate, exponential
// inter-arrival times.
type Poisson struct {
	// RatePerSec is λ in jobs/second.
	RatePerSec float64
}

func (p Poisson) Rate(time.Duration) float64 { return p.RatePerSec }
func (p Poisson) Peak() float64              { return p.RatePerSec }
func (p Poisson) Name() string               { return fmt.Sprintf("poisson(%.3g/s)", p.RatePerSec) }

// Bursty modulates a Poisson process with an on/off square wave: OnRate for
// the first On of every On+Off period, OffRate for the rest. It models flash
// crowds and batch windows — sustained bursts a mean-rate provisioner
// underestimates.
type Bursty struct {
	OnRate, OffRate float64
	On, Off         time.Duration
}

func (b Bursty) Rate(t time.Duration) float64 {
	period := b.On + b.Off
	if period <= 0 {
		return b.OnRate
	}
	if t%period < b.On {
		return b.OnRate
	}
	return b.OffRate
}

func (b Bursty) Peak() float64 { return math.Max(b.OnRate, b.OffRate) }

func (b Bursty) Name() string {
	return fmt.Sprintf("bursty(%.3g/s×%v on, %.3g/s×%v off)", b.OnRate, b.On, b.OffRate, b.Off)
}

// Diurnal is a piecewise-constant rate repeating with the given period: Rates
// divides the period into equal slots (e.g. 24 hourly rates over a day). It
// models the day/night shape autoscalers are built to track.
type Diurnal struct {
	Period time.Duration
	Rates  []float64
}

func (d Diurnal) Rate(t time.Duration) float64 {
	if len(d.Rates) == 0 || d.Period <= 0 {
		return 0
	}
	slot := d.Period / time.Duration(len(d.Rates))
	i := int((t % d.Period) / slot)
	if i >= len(d.Rates) {
		i = len(d.Rates) - 1
	}
	return d.Rates[i]
}

func (d Diurnal) Peak() float64 {
	var m float64
	for _, r := range d.Rates {
		m = math.Max(m, r)
	}
	return m
}

func (d Diurnal) Name() string { return fmt.Sprintf("diurnal(%d slots/%v)", len(d.Rates), d.Period) }

// Class is one tenant class in the traffic mix. The generator picks a class
// per arrival by weight; the caller maps the class name to a concrete
// workload (family, input size, conf overrides) when building the JobSpec.
type Class struct {
	// Name labels the tenant class in reports ("interactive", "batch").
	Name string
	// Weight is the class's share of arrivals (relative, need not sum to 1).
	Weight float64
	// Priority is carried onto the generated job (higher = more urgent).
	Priority int
}

// Arrival is one generated job submission.
type Arrival struct {
	// Seq is the submission sequence number (0-based, schedule order).
	Seq int
	// At is the submission instant on the sim clock.
	At time.Duration
	// Class is the tenant class drawn for this arrival.
	Class Class
}

// Spec configures one traffic generation run.
type Spec struct {
	// Proc is the arrival-rate process.
	Proc Process
	// Classes is the tenant mix; weights are normalized internally. Empty
	// means every arrival gets the zero Class.
	Classes []Class
	// Seed fixes the PRNG; equal specs with equal seeds generate identical
	// schedules.
	Seed int64
	// Horizon bounds generation: no arrivals at or after this instant.
	Horizon time.Duration
	// MaxJobs, if > 0, caps the number of arrivals even before the horizon.
	MaxJobs int
}

// Generate draws the full arrival schedule. Thinning (Lewis–Shedler): draw
// candidate instants from a homogeneous Poisson process at the peak rate,
// accept each with probability Rate(t)/Peak. For a homogeneous process every
// candidate is accepted and this reduces to exponential inter-arrivals. The
// returned schedule is sorted by time with ties impossible (continuous
// inter-arrival draws) and Seq numbering in time order.
func (s Spec) Generate() []Arrival {
	if s.Proc == nil || s.Proc.Peak() <= 0 || s.Horizon <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(s.Seed))
	peak := s.Proc.Peak()
	var (
		out []Arrival
		t   time.Duration
	)
	for {
		// Exponential gap at the envelope rate, in float seconds.
		gap := rng.ExpFloat64() / peak
		t += time.Duration(gap * float64(time.Second))
		if t >= s.Horizon {
			break
		}
		if accept := s.Proc.Rate(t) / peak; rng.Float64() >= accept {
			continue
		}
		out = append(out, Arrival{Seq: len(out), At: t, Class: s.pickClass(rng)})
		if s.MaxJobs > 0 && len(out) >= s.MaxJobs {
			break
		}
	}
	return out
}

// pickClass draws one tenant class by weight. Exactly one variate is
// consumed per arrival regardless of the class list, so the arrival
// *instants* of a schedule depend only on (Proc, Seed, Horizon) — changing
// the tenant mix relabels jobs without moving them.
func (s Spec) pickClass(rng *rand.Rand) Class {
	x := rng.Float64()
	var total float64
	for _, c := range s.Classes {
		if c.Weight > 0 {
			total += c.Weight
		}
	}
	if total <= 0 {
		if len(s.Classes) == 1 {
			return s.Classes[0]
		}
		return Class{}
	}
	x *= total
	for _, c := range s.Classes {
		if c.Weight <= 0 {
			continue
		}
		if x < c.Weight {
			return c
		}
		x -= c.Weight
	}
	return s.Classes[len(s.Classes)-1]
}
