// Package chaos provides deterministic, seeded fault schedules for the
// simulated cluster: executor crashes at a virtual time (optionally followed
// by a restart), transient task I/O faults, and shuffle-fetch failures. A
// Plan is pure data plus pure hash functions — it holds no clock and no
// RNG state, so the same plan injects exactly the same faults into the same
// run every time, preserving the repo's determinism guarantee. The engine
// consults the plan from the sim clock (crash events) and from task
// attempts (fault rolls); the chaos package itself knows nothing about the
// engine.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Crash schedules the loss of one executor at a virtual time.
type Crash struct {
	// Exec is the executor ID to kill.
	Exec int
	// At is the virtual time of the crash, measured from job start.
	At time.Duration
	// RestartAfter, if positive, brings the executor back that long
	// after the crash with a fresh controller (restart at cmin).
	RestartAfter time.Duration
}

// Slow schedules a gray failure: from At onward, one node's disk and CPU
// serve at 1/Factor of their nominal rate (a degrading drive, thermal
// throttling, a noisy neighbour stealing cycles). The executor stays alive
// and keeps heartbeating — nothing crashes, everything just gets slower.
type Slow struct {
	// Exec is the executor/node ID to degrade.
	Exec int
	// At is the virtual time the degradation sets in.
	At time.Duration
	// Factor divides the node's device service rates (2 = half speed).
	Factor float64
}

// Partition cuts one executor's network for a window: its heartbeats and
// shuffle fetches to/from it are dropped while tasks already on the node
// keep running — the classic gray failure that turns a failure detector's
// timeout into a false positive.
type Partition struct {
	// Exec is the executor/node ID to isolate.
	Exec int
	// At is the virtual time the partition starts.
	At time.Duration
	// Duration is how long the partition lasts.
	Duration time.Duration
}

// Plan is a named, seeded fault schedule.
type Plan struct {
	// Name labels the plan in reports ("quiet", "crash@2m", …).
	Name string
	// Seed drives the per-(stage,task,attempt) fault hashes.
	Seed int64
	// Crashes lists scheduled executor losses, in no particular order.
	Crashes []Crash
	// Slows lists scheduled node degradations (gray failures).
	Slows []Slow
	// Partitions lists scheduled network partitions (gray failures).
	Partitions []Partition
	// TaskFaultRate is the probability that a task attempt suffers a
	// transient I/O fault partway through its input.
	TaskFaultRate float64
	// FetchFaultRate is the probability that a reduce task attempt's
	// shuffle fetch fails transiently.
	FetchFaultRate float64
	// CorruptRate is the probability that one DFS block replica is
	// bit-rotten: reads of it return data whose CRC32 does not match the
	// block's stored checksum. Rot is a property of the (block, node)
	// pair — re-reading the same replica fails the same way; failover to
	// another replica is the only way out.
	CorruptRate float64
	// MaxInjected caps how many attempts of one task may receive
	// injected faults (0 selects 2), so injected transients can never
	// exhaust the engine's task.maxFailures budget on their own.
	MaxInjected int
}

// CrashAt returns a plan that permanently kills executor exec at t.
func CrashAt(exec int, at time.Duration) *Plan {
	return &Plan{
		Name:    fmt.Sprintf("crash%d@%s", exec, at),
		Crashes: []Crash{{Exec: exec, At: at}},
	}
}

// CrashRestart returns a plan that kills executor exec at t and restarts it
// after the given delay.
func CrashRestart(exec int, at, after time.Duration) *Plan {
	return &Plan{
		Name:    fmt.Sprintf("crash%d@%s+%s", exec, at, after),
		Crashes: []Crash{{Exec: exec, At: at, RestartAfter: after}},
	}
}

// Flaky returns a plan injecting transient task I/O faults at the given
// rate.
func Flaky(rate float64, seed int64) *Plan {
	return &Plan{Name: fmt.Sprintf("flaky:%g", rate), Seed: seed, TaskFaultRate: rate}
}

// FetchStorm returns a plan injecting transient shuffle-fetch failures at
// the given rate.
func FetchStorm(rate float64, seed int64) *Plan {
	return &Plan{Name: fmt.Sprintf("fetch:%g", rate), Seed: seed, FetchFaultRate: rate}
}

// Mayhem returns a plan combining a mid-horizon crash-and-restart with
// transient task and fetch faults.
func Mayhem(horizon time.Duration, seed int64) *Plan {
	return &Plan{
		Name:           fmt.Sprintf("mayhem@%s", horizon),
		Seed:           seed,
		Crashes:        []Crash{{Exec: 1, At: horizon * 2 / 5, RestartAfter: horizon / 5}},
		TaskFaultRate:  0.02,
		FetchFaultRate: 0.03,
	}
}

// SlowAt returns a plan degrading executor exec's devices by factor from t.
func SlowAt(exec int, at time.Duration, factor float64) *Plan {
	return &Plan{
		Name:  fmt.Sprintf("slow%d@%sx%g", exec, at, factor),
		Slows: []Slow{{Exec: exec, At: at, Factor: factor}},
	}
}

// PartitionAt returns a plan isolating executor exec's network for dur
// starting at t.
func PartitionAt(exec int, at, dur time.Duration) *Plan {
	return &Plan{
		Name:       fmt.Sprintf("partition%d@%s+%s", exec, at, dur),
		Partitions: []Partition{{Exec: exec, At: at, Duration: dur}},
	}
}

// Corrupt returns a plan bit-rotting the given fraction of block replicas.
func Corrupt(rate float64, seed int64) *Plan {
	return &Plan{Name: fmt.Sprintf("corrupt:%g", rate), Seed: seed, CorruptRate: rate}
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Slows) == 0 && len(p.Partitions) == 0 &&
		p.TaskFaultRate <= 0 && p.FetchFaultRate <= 0 && p.CorruptRate <= 0)
}

// String returns the plan's name.
func (p *Plan) String() string {
	if p == nil {
		return "quiet"
	}
	return p.Name
}

func (p *Plan) maxInjected() int {
	if p.MaxInjected <= 0 {
		return 2
	}
	return p.MaxInjected
}

// TaskFault reports whether the given attempt of task (stage, task) suffers
// an injected transient I/O fault, and at which fraction of its input the
// fault strikes. attemptBudget is the engine's surviving-attempt budget
// (task.maxFailures − 1): injection stops below both caps so an injected
// fault can never abort a job by itself.
func (p *Plan) TaskFault(stage, task, attempt, attemptBudget int) (bool, float64) {
	if p == nil || p.TaskFaultRate <= 0 {
		return false, 0
	}
	if lim := p.maxInjected(); attemptBudget > lim {
		attemptBudget = lim
	}
	if attempt >= attemptBudget {
		return false, 0
	}
	if !p.roll(1, stage, task, attempt, p.TaskFaultRate) {
		return false, 0
	}
	// Strike somewhere in the middle of the input: [0.1, 0.9).
	return true, 0.1 + float64(0.8*p.frac(2, stage, task, attempt))
}

// FetchFault reports whether the given attempt's shuffle fetch fails
// transiently, under the same attempt budget as TaskFault.
func (p *Plan) FetchFault(stage, task, attempt, attemptBudget int) bool {
	if p == nil || p.FetchFaultRate <= 0 {
		return false
	}
	if lim := p.maxInjected(); attemptBudget > lim {
		attemptBudget = lim
	}
	if attempt >= attemptBudget {
		return false
	}
	return p.roll(3, stage, task, attempt, p.FetchFaultRate)
}

// FetchFaultTry reports whether the given retry (try 0 = the first fetch
// attempt) of a reduce attempt's shuffle fetch fails transiently. Try 0
// delegates to FetchFault so plans written before bounded fetch retries keep
// rolling the same coordinates; later tries roll fresh coordinates under the
// same per-task attempt budget, so a retry loop can observe a fault clear.
func (p *Plan) FetchFaultTry(stage, task, attempt, try, attemptBudget int) bool {
	if try == 0 {
		return p.FetchFault(stage, task, attempt, attemptBudget)
	}
	if p == nil || p.FetchFaultRate <= 0 {
		return false
	}
	if lim := p.maxInjected(); attemptBudget > lim {
		attemptBudget = lim
	}
	if attempt >= attemptBudget {
		return false
	}
	return p.roll(5, stage, task, attempt*64+try, p.FetchFaultRate)
}

// CorruptReplica reports whether the replica of the block with checksum sum
// stored on the given node is bit-rotten. The roll is keyed by (sum, node)
// only — no attempt coordinate — so re-reads of the same replica fail
// identically and failover to another replica is the only way out.
func (p *Plan) CorruptReplica(sum uint32, node int) bool {
	if p == nil || p.CorruptRate <= 0 {
		return false
	}
	return p.roll(4, int(sum), node, 0, p.CorruptRate)
}

// Partitioned reports whether executor exec is inside a partition window at
// virtual time now. Windows are half-open: [At, At+Duration).
func (p *Plan) Partitioned(exec int, now time.Duration) bool {
	if p == nil {
		return false
	}
	for _, w := range p.Partitions {
		if w.Exec == exec && now >= w.At && now < w.At+w.Duration {
			return true
		}
	}
	return false
}

// SortedCrashes returns the crash schedule ordered by time then executor.
func (p *Plan) SortedCrashes() []Crash {
	if p == nil {
		return nil
	}
	out := append([]Crash(nil), p.Crashes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Exec < out[j].Exec
	})
	return out
}

// SortedSlows returns the degradation schedule ordered by time then executor.
func (p *Plan) SortedSlows() []Slow {
	if p == nil {
		return nil
	}
	out := append([]Slow(nil), p.Slows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Exec < out[j].Exec
	})
	return out
}

// SortedPartitions returns the partition schedule ordered by start time then
// executor.
func (p *Plan) SortedPartitions() []Partition {
	if p == nil {
		return nil
	}
	out := append([]Partition(nil), p.Partitions...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Exec < out[j].Exec
	})
	return out
}

// roll draws a deterministic Bernoulli from the plan's seed and the fault
// coordinates.
func (p *Plan) roll(kind, stage, task, attempt int, rate float64) bool {
	if rate >= 1 {
		return true
	}
	return p.frac(kind, stage, task, attempt) < rate
}

// frac hashes the fault coordinates to a uniform float64 in [0, 1).
func (p *Plan) frac(kind, stage, task, attempt int) float64 {
	h := splitmix(uint64(p.Seed) ^ 0x9e3779b97f4a7c15)
	h = splitmix(h ^ uint64(kind))
	h = splitmix(h ^ uint64(stage))
	h = splitmix(h ^ uint64(task))
	h = splitmix(h ^ uint64(attempt))
	return float64(h>>11) / (1 << 53)
}

// splitmix is the SplitMix64 finalizer — the same stateless hashing idiom
// the device variability model uses for deterministic per-node factors.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Schedule is a parsed chaos spec: the one grammar behind sae-run's -faults
// flag, sae.ParseFaults and every `chaos:` / `schedules:` entry of a scenario
// file. A spec is a comma-separated list of clauses:
//
//	quiet | none          no faults (alone)
//	crash[N]@T[+R]        executor N (default 1) crashes at T and, with +R,
//	                      restarts R after the crash
//	slow[N]@T[xF]         executor N's disk and CPU degrade to 1/F (default
//	                      2, at most 1e3) of their nominal rate from T
//	                      onward
//	partition[N]@T+D      executor N's network drops (heartbeats and shuffle
//	                      fetches) for the window [T, T+D); running tasks
//	                      keep computing
//	flaky[:RATE]          transient task I/O faults (default rate 0.05)
//	fetch[:RATE]          transient shuffle-fetch failures (default 0.1)
//	corrupt[:RATE]        each DFS block replica is bit-rotten with the
//	                      given probability (default 0.01); reads fail the
//	                      CRC32 check until failover
//	mayhem@T              crash-restart of executor 1 mid-horizon T plus
//	                      low-rate task and fetch faults
//	seed:N                hash seed (default: the caller's)
//
// The executor may also be written ":N" ("slow:1@60sx4"). T, R and D are
// durations ("90s") or percentages ("45%") of a reference runtime supplied
// when the schedule is resolved; rates lie in (0, 1]. Example:
// "crash1@2m+30s,flaky:0.02,seed:7" or "slow:1@25%x4,partition:2@50%+10%".
type Schedule struct {
	clauses []func(ref time.Duration, seed int64) *Plan
	seed    *int64
}

// ParseSchedule parses a chaos spec. The quiet schedule is nil.
func ParseSchedule(spec string) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "quiet" || spec == "none" {
		return nil, nil
	}
	s := &Schedule{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if n, ok := strings.CutPrefix(clause, "seed:"); ok {
			seed, err := strconv.ParseInt(n, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: clause %q: %w", clause, err)
			}
			s.seed = &seed
			continue
		}
		gen, err := parseClause(clause)
		if err != nil {
			return nil, fmt.Errorf("chaos: clause %q: %w", clause, err)
		}
		s.clauses = append(s.clauses, gen)
	}
	return s, nil
}

// Plan resolves the schedule: percentage times become that share of ref,
// and seed applies unless the spec carries its own seed:N. Every clause is
// built by its constructor (CrashAt, SlowAt, Flaky, …) and the clauses are
// merged in order, so the plan's name is the comma-join of the constructors'
// resolved names ("crash1@1m8.04s,flaky:0.02") and a single-clause schedule
// is exactly the constructor's plan. A schedule without fault clauses
// resolves to nil, the quiet plan.
func (s *Schedule) Plan(ref time.Duration, seed int64) *Plan {
	if s == nil || len(s.clauses) == 0 {
		return nil
	}
	if s.seed != nil {
		seed = *s.seed
	}
	p := s.clauses[0](ref, seed)
	for _, gen := range s.clauses[1:] {
		q := gen(ref, seed)
		p.Name += "," + q.Name
		p.Crashes = append(p.Crashes, q.Crashes...)
		p.Slows = append(p.Slows, q.Slows...)
		p.Partitions = append(p.Partitions, q.Partitions...)
		// A later clause's rate replaces an earlier one's, and the seed
		// rides along with the clauses that roll dice.
		if q.TaskFaultRate > 0 {
			p.TaskFaultRate = q.TaskFaultRate
		}
		if q.FetchFaultRate > 0 {
			p.FetchFaultRate = q.FetchFaultRate
		}
		if q.CorruptRate > 0 {
			p.CorruptRate = q.CorruptRate
		}
		if q.Seed != 0 {
			p.Seed = q.Seed
		}
	}
	return p
}

// Parse builds a plan from an absolute-time spec (see Schedule for the
// grammar) with hash seed 1 unless the spec says otherwise. Parse returns
// nil for the quiet plan.
func Parse(spec string) (*Plan, error) {
	if strings.Contains(spec, "%") {
		return nil, fmt.Errorf("chaos: %q: percentage times need a reference runtime (chaos-matrix schedules only)", spec)
	}
	s, err := ParseSchedule(spec)
	return s.Plan(0, 1), err
}

// instant is a schedule time: absolute, or a percentage of the reference
// runtime.
type instant struct {
	pct   int64
	dur   time.Duration
	isPct bool
}

// resolve computes the instant. Percentage math is integer on nanoseconds
// (ref*pct/100); the committed goldens pin it.
func (t instant) resolve(ref time.Duration) time.Duration {
	if t.isPct {
		return ref * time.Duration(t.pct) / 100
	}
	return t.dur
}

func parseInstant(s, what string) (instant, error) {
	if pct, ok := strings.CutSuffix(s, "%"); ok {
		n, err := strconv.ParseInt(pct, 10, 64)
		if err != nil || n < 0 {
			return instant{}, fmt.Errorf("bad %s: %q is not a percentage (want e.g. 45%%)", what, s)
		}
		if n > 100 {
			return instant{}, fmt.Errorf("bad %s: percentage %q is out of range (times are fractions of the reference runtime; want 0%%-100%%)", what, s)
		}
		return instant{pct: n, isPct: true}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return instant{}, fmt.Errorf("bad %s: %q is not a non-negative duration or percentage", what, s)
	}
	return instant{dur: d}, nil
}

var rateClauses = []struct {
	name string
	def  float64
	mk   func(rate float64, seed int64) *Plan
}{{"flaky", 0.05, Flaky}, {"fetch", 0.1, FetchStorm}, {"corrupt", 0.01, Corrupt}}

var errUnknownClause = errors.New("unknown clause (want quiet, crash[N]@T[+R], slow[N]@T[xF], partition[N]@T+D, flaky[:RATE], fetch[:RATE], corrupt[:RATE], mayhem@T or seed:N)")

// parseClause parses one fault clause into its plan builder.
func parseClause(clause string) (func(time.Duration, int64) *Plan, error) {
	for _, rc := range rateClauses {
		rest, ok := strings.CutPrefix(clause, rc.name)
		if !ok {
			continue
		}
		rate := rc.def
		if rest != "" {
			if rest[0] != ':' {
				return nil, errUnknownClause
			}
			var err error
			if rate, err = strconv.ParseFloat(rest[1:], 64); err != nil || !(rate > 0 && rate <= 1) {
				return nil, fmt.Errorf("bad rate %q (want a fraction in (0, 1]; no faults is spelled quiet)", rest[1:])
			}
		}
		return func(_ time.Duration, seed int64) *Plan { return rc.mk(rate, seed) }, nil
	}
	if t, ok := strings.CutPrefix(clause, "mayhem@"); ok {
		horizon, err := parseInstant(t, "horizon")
		if err != nil {
			return nil, err
		}
		return func(ref time.Duration, seed int64) *Plan { return Mayhem(horizon.resolve(ref), seed) }, nil
	}
	for _, head := range []string{"crash", "slow", "partition"} {
		if rest, ok := strings.CutPrefix(clause, head); ok {
			return parseTimed(head, strings.TrimPrefix(rest, ":"))
		}
	}
	return nil, errUnknownClause
}

// maxSlowFactor bounds a slow clause's factor. A device slowed much further
// takes longer than any run can simulate — at 1e9 a task's megabytes take
// decades of virtual time, which the engine's heartbeats fill event by event —
// and 1e3 is already a device at a thousandth of its speed.
const maxSlowFactor = 1e3

// ErrOutOfRange marks a clause value that parses but lies outside what the
// grammar accepts: an invocation that can never run, which the CLIs tell
// from a malformed spec by their exit status.
var ErrOutOfRange = errors.New("out of range")

// parseTimed parses the "[N]@T…" tail of a crash, slow or partition clause.
func parseTimed(head, rest string) (func(time.Duration, int64) *Plan, error) {
	n, times, ok := strings.Cut(rest, "@")
	if !ok {
		return nil, errors.New("missing @T")
	}
	exec := 1
	if n != "" {
		var err error
		if exec, err = strconv.Atoi(n); err != nil || exec < 0 {
			return nil, fmt.Errorf("bad executor %q", n)
		}
	}
	if head == "slow" {
		t, f, scaled := strings.Cut(times, "x")
		factor := 2.0
		if scaled {
			var err error
			factor, err = strconv.ParseFloat(f, 64)
			if err != nil && !errors.Is(err, strconv.ErrRange) || math.IsNaN(factor) {
				return nil, fmt.Errorf("bad factor %q (want a positive number)", f)
			}
			if !(factor > 0 && factor <= maxSlowFactor) {
				return nil, fmt.Errorf("bad factor %q: %w (want one in (0, %g])", f, ErrOutOfRange, maxSlowFactor)
			}
		}
		at, err := parseInstant(t, "time")
		if err != nil {
			return nil, err
		}
		return func(ref time.Duration, _ int64) *Plan { return SlowAt(exec, at.resolve(ref), factor) }, nil
	}
	t, d, windowed := strings.Cut(times, "+")
	at, err := parseInstant(t, "time")
	if err != nil {
		return nil, err
	}
	if !windowed {
		if head == "partition" {
			// A permanent partition is spelled crash.
			return nil, errors.New("want partition[N]@T+D")
		}
		return func(ref time.Duration, _ int64) *Plan { return CrashAt(exec, at.resolve(ref)) }, nil
	}
	span, err := parseInstant(d, "restart delay or window")
	if err != nil {
		return nil, err
	}
	if head == "crash" {
		return func(ref time.Duration, _ int64) *Plan { return CrashRestart(exec, at.resolve(ref), span.resolve(ref)) }, nil
	}
	if span.pct == 0 && span.dur == 0 {
		return nil, errors.New("partition window must be positive")
	}
	return func(ref time.Duration, _ int64) *Plan { return PartitionAt(exec, at.resolve(ref), span.resolve(ref)) }, nil
}
