package hunt

import (
	"fmt"
	"math/rand"

	"sae/internal/conf"
	"sae/internal/scenario"
	"sae/internal/workloads"
)

// mutate derives one candidate from parent: clone, apply a random
// applicable operator (two with some probability), and validate the result
// by a Marshal∘Parse round trip so every candidate the hunt runs is also a
// spec the canonical writer can re-emit and replay. Invalid mutants are
// discarded, not repaired.
func mutate(parent *scenario.Spec, rng *rand.Rand) (*scenario.Spec, bool) {
	m, err := clone(parent)
	if err != nil {
		return nil, false
	}
	applied := 0
	want := 1 + rng.Intn(2)
	for try := 0; try < 12 && applied < want; try++ {
		if ops[rng.Intn(len(ops))](m, rng) {
			applied++
		}
	}
	if applied == 0 {
		mutSeed(m, rng)
	}
	out, err := clone(m)
	if err != nil {
		return nil, false
	}
	return out, true
}

// ops are the mutation operators. Each reports whether it applied (an
// operator that does not fit the spec's kind declines). Order is fixed:
// the hunt must be a deterministic function of the seed.
var ops = []func(*scenario.Spec, *rand.Rand) bool{
	mutSeed,
	mutNodes,
	mutConf,
	mutChaosSingle,
	mutSchedule,
	mutAddSchedule,
	mutDropSchedule,
	mutPolicy,
	mutWorkload,
	mutScheduler,
	mutArrival,
}

var (
	workloadNames = workloads.Names()
	policyNames   = []string{"default", "dynamic", "static:4", "static:8", "static:16"}
	slowFactors   = []string{"1.5", "2", "3", "4", "6"}
	faultRates    = []string{"0.02", "0.05", "0.1", "0.2"}
)

// confMuts are catalogue knobs worth perturbing, each with values inside
// its validated range. A slice (not a map) keeps draw order deterministic.
var confMuts = []struct {
	key  string
	vals []string
}{
	{"speculation", []string{"true", "false"}},
	{"speculation.multiplier", []string{"1.2", "1.5", "2"}},
	{"speculation.quantile", []string{"0.5", "0.75", "0.9"}},
	{"task.maxFailures", []string{"2", "3", "4", "6"}},
	{"blacklist.stage.maxFailedTasksPerExecutor", []string{"1", "2", "3"}},
	{"shuffle.io.maxRetries", []string{"0", "1", "3", "6"}},
	{"shuffle.io.retryWait", []string{"1s", "2s", "5s"}},
	{"executor.heartbeatInterval", []string{"2s", "5s", "10s"}},
	{"scheduler.mode", []string{"FIFO", "FAIR"}},
	{"executor.taskOverheadMillis", []string{"0", "20", "50"}},
}

func pick(rng *rand.Rand, vals []string) string { return vals[rng.Intn(len(vals))] }

func mutSeed(sp *scenario.Spec, rng *rand.Rand) bool {
	sp.Cluster.Seed = 1 + rng.Int63n(1_000_000)
	return true
}

func mutNodes(sp *scenario.Spec, rng *rand.Rand) bool {
	sp.Cluster.Nodes = 2 + rng.Intn(7)
	return true
}

func mutConf(sp *scenario.Spec, rng *rand.Rand) bool {
	m := confMuts[rng.Intn(len(confMuts))]
	if m.key == "scheduler.mode" && (sp.Kind == scenario.KindTenantMatrix || sp.Kind == scenario.KindArrivalMatrix) {
		return false // those kinds fix the scheduler; Compile refuses the key
	}
	v := pick(rng, m.vals)
	// Defensive: only emit values the catalogue actually accepts, so the
	// mutant fails here (declined) rather than at compile (wasted run).
	if err := conf.New().Set(m.key, v); err != nil {
		return false
	}
	if sp.Conf == nil {
		sp.Conf = map[string]string{}
	}
	sp.Conf[m.key] = v
	return true
}

// nodeCount is the effective cluster size for choosing chaos targets.
func nodeCount(sp *scenario.Spec) int {
	if sp.Cluster.Nodes > 0 {
		return sp.Cluster.Nodes
	}
	return 4
}

// randTarget picks a victim executor, sparing executor 0 so a single-node
// mutation cannot trivially kill the whole cluster.
func randTarget(sp *scenario.Spec, rng *rand.Rand) int {
	n := nodeCount(sp)
	if n < 3 {
		return 1
	}
	return 1 + rng.Intn(n-1)
}

// randAbsClause builds a single-run chaos clause with absolute times
// (percentage times are a matrix-only construct).
func randAbsClause(sp *scenario.Spec, rng *rand.Rand) string {
	exec := randTarget(sp, rng)
	at := 3 + rng.Intn(88) // 3s..90s, inside small-scale runtimes
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("crash%d@%ds", exec, at)
	case 1:
		return fmt.Sprintf("crash%d@%ds+%ds", exec, at, 10+rng.Intn(51))
	case 2:
		return fmt.Sprintf("slow%d@%dsx%s", exec, at, pick(rng, slowFactors))
	case 3:
		return fmt.Sprintf("partition%d@%ds+%ds", exec, at, 5+rng.Intn(46))
	case 4:
		return pick(rng, []string{"flaky", "fetch"}) + ":" + pick(rng, faultRates)
	default:
		return "corrupt:" + pick(rng, []string{"0.005", "0.01", "0.02"})
	}
}

// randPctClause builds a chaos-matrix schedule clause with percentage
// times resolved against each policy's quiet runtime.
func randPctClause(sp *scenario.Spec, rng *rand.Rand) string {
	exec := randTarget(sp, rng)
	at := 5 + rng.Intn(91) // 5%..95%
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("crash%d@%d%%", exec, at)
	case 1:
		return fmt.Sprintf("crash%d@%d%%+%d%%", exec, at, 5+rng.Intn(91))
	case 2:
		return fmt.Sprintf("slow%d@%d%%x%s", exec, at, pick(rng, slowFactors))
	case 3:
		return fmt.Sprintf("partition%d@%d%%+%d%%", exec, at, 5+rng.Intn(min(91, 101-at)))
	case 4:
		return pick(rng, []string{"flaky", "fetch"}) + ":" + pick(rng, faultRates)
	case 5:
		return "corrupt:" + pick(rng, []string{"0.005", "0.01", "0.02"})
	case 6:
		return fmt.Sprintf("mayhem@%d%%", 50+rng.Intn(51))
	default:
		return "quiet"
	}
}

func mutChaosSingle(sp *scenario.Spec, rng *rand.Rand) bool {
	if sp.Kind != scenario.KindSingle {
		return false
	}
	c := randAbsClause(sp, rng)
	if rng.Intn(4) == 0 {
		c += "," + randAbsClause(sp, rng)
	}
	sp.Chaos = c
	return true
}

func mutSchedule(sp *scenario.Spec, rng *rand.Rand) bool {
	if sp.Kind != scenario.KindChaosMatrix || len(sp.Schedules) == 0 {
		return false
	}
	sp.Schedules[rng.Intn(len(sp.Schedules))] = randPctClause(sp, rng)
	return true
}

func mutAddSchedule(sp *scenario.Spec, rng *rand.Rand) bool {
	if sp.Kind != scenario.KindChaosMatrix || len(sp.Schedules) >= 6 {
		return false
	}
	sp.Schedules = append(sp.Schedules, randPctClause(sp, rng))
	return true
}

func mutDropSchedule(sp *scenario.Spec, rng *rand.Rand) bool {
	if sp.Kind != scenario.KindChaosMatrix || len(sp.Schedules) < 2 {
		return false
	}
	i := rng.Intn(len(sp.Schedules))
	sp.Schedules = append(sp.Schedules[:i], sp.Schedules[i+1:]...)
	return true
}

func mutPolicy(sp *scenario.Spec, rng *rand.Rand) bool {
	p := pick(rng, policyNames)
	switch sp.Kind {
	case scenario.KindSingle:
		sp.Policy = p
	case scenario.KindChaosMatrix, scenario.KindTenantMatrix:
		if len(sp.Policies) == 0 {
			return false
		}
		sp.Policies[rng.Intn(len(sp.Policies))] = p
	default:
		return false
	}
	return true
}

func mutWorkload(sp *scenario.Spec, rng *rand.Rand) bool {
	w := pick(rng, workloadNames)
	switch sp.Kind {
	case scenario.KindSingle, scenario.KindChaosMatrix:
		sp.Workload = w
	case scenario.KindTenantMatrix:
		if len(sp.Mixes) == 0 {
			return false
		}
		mix := &sp.Mixes[rng.Intn(len(sp.Mixes))]
		if len(mix.Workloads) == 0 {
			return false
		}
		mix.Workloads[rng.Intn(len(mix.Workloads))] = w
	default:
		return false
	}
	return true
}

func mutScheduler(sp *scenario.Spec, rng *rand.Rand) bool {
	if sp.Kind != scenario.KindTenantMatrix || len(sp.Schedulers) == 0 {
		return false
	}
	sp.Schedulers[rng.Intn(len(sp.Schedulers))] = pick(rng, []string{"fifo", "fair"})
	return true
}

func mutArrival(sp *scenario.Spec, rng *rand.Rand) bool {
	if sp.Kind != scenario.KindArrivalMatrix || sp.Arrival == nil {
		return false
	}
	m := sp.Arrival
	switch rng.Intn(4) {
	case 0:
		if len(m.Arrivals) == 0 {
			return false
		}
		p := &m.Arrivals[rng.Intn(len(m.Arrivals))]
		f := []float64{0.5, 0.75, 1.5, 2}[rng.Intn(4)]
		p.Rate *= f
		p.OnRate *= f
		p.OffRate *= f
	case 1:
		m.MaxJobs = 8 + rng.Intn(25)
	case 2:
		m.Capacity = pick(rng, []string{"4", "6", "8", "2x", "3x"})
	case 3:
		if len(m.Configs) == 0 {
			return false
		}
		c := &m.Configs[rng.Intn(len(m.Configs))]
		if c.Policy != "adaptive" {
			return false
		}
		c.Headroom = []float64{1, 2, 3}[rng.Intn(3)]
	}
	return true
}
