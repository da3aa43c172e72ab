// Package hunt is a seeded, deterministic, coverage-guided fuzzer over
// scenario specs. It mutates the spec surface — chaos clause times,
// factors and targets, arrival mixes, conf knobs within the catalogue,
// cluster shape — runs each candidate under the invariant audit plane
// (internal/invariant), and uses the auditor's coverage signal (reached
// trace-event types plus audit state transitions) to decide which mutants
// join the corpus. A candidate that violates an invariant is shrunk to a
// minimal reproducer and emitted through the canonical scenario.Marshal,
// so `sae-run -scenario <finding>.yaml` replays the violation exactly.
//
// Everything is driven by one seeded PRNG and the engines themselves are
// deterministic, so a hunt is fully reproducible from (seed, corpus,
// options): same findings, same shrunk YAML, byte for byte.
//
// The corpus seeds run side by side, up to GOMAXPROCS at once, and their
// outcomes are folded in corpus order, so the hunt does not depend on
// GOMAXPROCS either. Mutants and shrink candidates run one at a time: each
// one's draw or choice depends on the outcomes before it.
package hunt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"sae/internal/engine"
	"sae/internal/exp"
	"sae/internal/invariant"
	"sae/internal/scenario"
)

// Options configures one hunt.
type Options struct {
	// Seed drives the mutation PRNG; the whole hunt is a deterministic
	// function of it (and the corpus and options).
	Seed int64
	// Runs bounds the number of scenario executions in the search loop,
	// corpus seeds included (0 selects 16). Shrinking spends extra runs
	// on top, bounded per finding by ShrinkRuns.
	Runs int
	// ShrinkRuns bounds the extra executions spent minimizing each
	// violating spec (0 selects 24).
	ShrinkRuns int
	// Scale overrides every spec's cluster scale so hunts stay cheap
	// (0 keeps the specs' own scales). When it rewrites a spec's scale,
	// the spec's expect block is dropped: its thresholds were calibrated
	// for the original scale and would misfire as false findings.
	Scale float64
	// Corpus seeds the search, typically the committed scenarios/*.yaml.
	// Every seed is executed first, so a hunt doubles as the check that
	// the committed specs pass all invariants.
	Corpus []*scenario.Spec
	// Log, if set, receives progress lines.
	Log func(format string, args ...any)
}

// Finding is one minimized invariant violation.
type Finding struct {
	// Rule is the violated invariant's name.
	Rule string
	// Violation is the first violation of Rule from the shrunk spec's run.
	Violation invariant.Violation
	// YAML is the shrunk reproducer's canonical marshaling.
	YAML []byte
	// FoundAt is the 1-based search run that first hit the rule.
	FoundAt int
	// ShrinkRuns counts the executions the minimizer spent.
	ShrinkRuns int
	// Replayed reports that YAML was re-parsed and re-run from scratch
	// and reproduced the same rule.
	Replayed bool
}

// Result summarizes a hunt.
type Result struct {
	// Runs counts search-loop executions; ShrinkRuns the extra
	// minimization executions.
	Runs       int
	ShrinkRuns int
	// CorpusIn and CorpusOut are the corpus sizes before and after
	// coverage-guided additions.
	CorpusIn, CorpusOut int
	// Coverage is the sorted union of behavior signals reached.
	Coverage []string
	// Findings are the minimized violations, one per rule, in discovery
	// order.
	Findings []Finding
}

type hunter struct {
	opts    Options
	rng     *rand.Rand
	logf    func(string, ...any)
	corpus  []*scenario.Spec
	covered map[string]struct{}
	seen    map[string]bool // rules already reported
	res     *Result
}

// Run executes one hunt.
func Run(opts Options) (*Result, error) {
	if len(opts.Corpus) == 0 {
		return nil, errors.New("hunt: empty corpus")
	}
	if opts.Runs <= 0 {
		opts.Runs = 16
	}
	if opts.ShrinkRuns <= 0 {
		opts.ShrinkRuns = 24
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	h := &hunter{
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		logf:    logf,
		covered: map[string]struct{}{},
		seen:    map[string]bool{},
		res:     &Result{CorpusIn: len(opts.Corpus)},
	}
	for _, sp := range opts.Corpus {
		n, err := h.normalize(sp)
		if err != nil {
			return nil, fmt.Errorf("hunt: corpus spec %s: %w", sp.Name, err)
		}
		h.corpus = append(h.corpus, n)
	}
	// Phase 1: the corpus itself. Violations here mean a committed golden
	// scenario breaks an invariant — exactly what hunt-smoke gates on.
	seeds := h.corpus[:min(len(h.corpus), opts.Runs)]
	for i, o := range runAll(seeds) {
		h.fold(seeds[i], o, false)
	}
	// Phase 2: coverage-guided mutation.
	for h.res.Runs < opts.Runs {
		parent := h.corpus[h.rng.Intn(len(h.corpus))]
		m, ok := mutate(parent, h.rng)
		if !ok {
			continue
		}
		h.fold(m, runSpec(m), true)
	}
	h.res.CorpusOut = len(h.corpus)
	h.res.Coverage = make([]string, 0, len(h.covered))
	for sig := range h.covered {
		h.res.Coverage = append(h.res.Coverage, sig)
	}
	sort.Strings(h.res.Coverage)
	return h.res, nil
}

// normalize canonicalizes one corpus seed: a Marshal∘Parse round trip (a
// deep copy that also proves the spec survives re-emission), the hunt's
// scale override, and — only when the scale was rewritten — dropping the
// expect block whose thresholds no longer apply.
func (h *hunter) normalize(sp *scenario.Spec) (*scenario.Spec, error) {
	n, err := clone(sp)
	if err != nil {
		return nil, err
	}
	if h.opts.Scale > 0 && h.opts.Scale != n.Cluster.Scale {
		n.Cluster.Scale = h.opts.Scale
		n.Expect = nil
	}
	return n, nil
}

// fold folds one execution's outcome into the hunt state: coverage, corpus,
// log, shrink, finding.
func (h *hunter) fold(sp *scenario.Spec, o outcome, mutant bool) {
	h.res.Runs++
	run := h.res.Runs
	if !o.compiled {
		h.logf("run %d (%s): discarded, does not compile: %v", run, sp.Name, o.err)
		return
	}
	fresh := 0
	for _, sig := range o.coverage {
		if _, ok := h.covered[sig]; !ok {
			h.covered[sig] = struct{}{}
			fresh++
		}
	}
	vs := o.violations
	if len(vs) == 0 {
		if o.err != nil {
			// The engine refused the run (e.g. the whole cluster died);
			// no invariant broke, so the candidate is just uninteresting.
			h.logf("run %d (%s): discarded, engine error: %v", run, sp.Name, o.err)
			return
		}
		if mutant && fresh > 0 {
			h.corpus = append(h.corpus, sp)
			h.logf("run %d (%s): clean, %d new signals, corpus %d", run, sp.Name, fresh, len(h.corpus))
		} else {
			h.logf("run %d (%s): clean", run, sp.Name)
		}
		return
	}
	// The first violation of a rule not reported yet makes the finding: a
	// run that breaks a known rule and then overruns its budget still
	// reports the overrun.
	i := slices.IndexFunc(vs, func(v invariant.Violation) bool { return !h.seen[v.Rule] })
	if i < 0 {
		h.logf("run %d (%s): %d violation(s) of already-reported rule %s", run, sp.Name, len(vs), vs[0].Rule)
		return
	}
	rule := vs[i].Rule
	h.seen[rule] = true
	h.logf("run %d (%s): VIOLATION %s — shrinking", run, sp.Name, vs[i])
	shrunk, spent := h.shrink(sp, rule)
	h.res.ShrinkRuns += spent
	f := Finding{
		Rule:       rule,
		YAML:       scenario.Marshal(shrunk),
		FoundAt:    run,
		ShrinkRuns: spent,
	}
	// Replay from the emitted bytes alone: the YAML is the artifact a
	// human commits, so it — not the in-memory spec — must reproduce.
	if replayed, err := scenario.Parse(shrunk.Name+".yaml", f.YAML); err == nil {
		if v, ok := runSpec(replayed).first(rule); ok {
			f.Violation = v
			f.Replayed = true
		}
	}
	if !f.Replayed {
		f.Violation = vs[i]
	}
	h.res.Findings = append(h.res.Findings, f)
}

// outcome is what the hunt reads of one execution. A spec that did not
// compile has compiled false; one that did may carry violations even when
// its run erred (the invariant broke before the engine gave up).
type outcome struct {
	compiled   bool
	err        error
	coverage   []string
	violations []invariant.Violation
}

// runSpec executes one spec under an auditor of its own, which it releases.
// Each engine run is bounded (budgets); a run a budget ended is a violation
// of the rule "budget".
func runSpec(sp *scenario.Spec) outcome {
	aud := invariant.Spare()
	defer aud.Release()
	s := sp.BaseSetup()
	s.Audit = aud
	s.MaxVirtualTime, s.MaxEvents = budgets(s)
	c, err := sp.Compile(s)
	if err != nil {
		return outcome{err: err}
	}
	_, err = c.Run()
	if errors.Is(err, engine.ErrBudget) {
		aud.Flag("budget", err.Error())
	}
	return outcome{compiled: true, err: err, coverage: aud.Coverage(), violations: aud.Violations()}
}

// budgets returns the virtual-time and event budgets of each engine run on
// s: two hours plus 10⁵ s per unit of work (scale × 4 / nodes, the paper's
// 4-node cluster at scale 1 being one unit), and 2000 events per budgeted
// second. The longest run of every committed spec, at scale 0.02, 0.05 and
// its own, and of every benchmark hunt spec stays more than twelve times
// inside both. A budget past what a time.Duration holds is left unbounded.
func budgets(s exp.Setup) (time.Duration, uint64) {
	secs := math.Ceil(7200 + 1e5*s.Scale*4/float64(max(s.Nodes, 1)))
	if !(secs < float64(math.MaxInt64)/1e9) {
		return 0, 0
	}
	return time.Duration(secs) * time.Second, uint64(2000 * secs)
}

// runAll runs specs side by side, up to GOMAXPROCS at once, and returns
// their outcomes by index.
func runAll(specs []*scenario.Spec) []outcome {
	out, _ := exp.Each(exp.Setup{}, len(specs), func(_ exp.Setup, i int) (outcome, error) {
		return runSpec(specs[i]), nil
	})
	return out
}

// first returns the outcome's first violation of rule.
func (o outcome) first(rule string) (invariant.Violation, bool) {
	for _, v := range o.violations {
		if v.Rule == rule {
			return v, true
		}
	}
	return invariant.Violation{}, false
}

// clone deep-copies a spec through the canonical writer, guaranteeing the
// result both round-trips and replays from its own marshaling.
func clone(sp *scenario.Spec) (*scenario.Spec, error) {
	return scenario.Parse(sp.Name+".yaml", scenario.Marshal(sp))
}
