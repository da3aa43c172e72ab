package hunt

import (
	"slices"
	"sort"

	"sae/internal/scenario"
)

// shrink greedily minimizes a violating spec while the same rule keeps
// firing, spending at most Options.ShrinkRuns extra executions. Each pass
// proposes the deterministic reduction list (drop a matrix dimension
// entry, drop a conf key, shed the description); the first candidate that
// still violates the rule replaces the spec and restarts the pass, so the
// result is a local minimum: no single remaining reduction preserves the
// violation.
func (h *hunter) shrink(sp *scenario.Spec, rule string) (*scenario.Spec, int) {
	spent := 0
	for spent < h.opts.ShrinkRuns {
		improved := false
		for _, cand := range reductions(sp) {
			if spent >= h.opts.ShrinkRuns {
				break
			}
			spent++
			if _, ok := runSpec(cand).first(rule); ok {
				sp = cand
				improved = true
				h.logf("shrink: kept %s reduction (%d run(s) spent)", rule, spent)
				break
			}
		}
		if !improved {
			break
		}
	}
	return sp, spent
}

// reductions proposes every single-step simplification of sp, cloned so
// candidates are independent. Order is deterministic: structural
// dimensions first (each dropped entry removes whole engine runs), then
// conf keys, then cosmetics.
func reductions(sp *scenario.Spec) []*scenario.Spec {
	var out []*scenario.Spec
	add := func(edit func(*scenario.Spec)) {
		c, err := clone(sp)
		if err != nil {
			return
		}
		edit(c)
		if rt, err := clone(c); err == nil {
			out = append(out, rt)
		}
	}
	switch sp.Kind {
	case scenario.KindChaosMatrix:
		dropEach(sp, add, func(s *scenario.Spec) *[]string { return &s.Schedules })
		dropEach(sp, add, func(s *scenario.Spec) *[]string { return &s.Policies })
	case scenario.KindTenantMatrix:
		dropEach(sp, add, func(s *scenario.Spec) *[]scenario.MixSpec { return &s.Mixes })
		dropEach(sp, add, func(s *scenario.Spec) *[]string { return &s.Schedulers })
		dropEach(sp, add, func(s *scenario.Spec) *[]string { return &s.Policies })
	case scenario.KindArrivalMatrix:
		if sp.Arrival != nil {
			dropEach(sp, add, func(s *scenario.Spec) *[]scenario.ProvisionSpec { return &s.Arrival.Configs })
			dropEach(sp, add, func(s *scenario.Spec) *[]scenario.ArrivalProcSpec { return &s.Arrival.Arrivals })
		}
	case scenario.KindSingle:
		if sp.Expect != nil {
			add(func(c *scenario.Spec) { c.Expect = nil })
		}
	}
	for _, k := range confKeys(sp.Conf) {
		add(func(c *scenario.Spec) { delete(c.Conf, k) })
	}
	if sp.Description != "" {
		add(func(c *scenario.Spec) { c.Description = "" })
	}
	return out
}

// dropEach proposes, for a matrix dimension of two or more entries, one
// candidate per entry with that entry dropped, in entry order. list picks the
// dimension out of sp and out of each candidate's own clone.
func dropEach[T any](sp *scenario.Spec, add func(func(*scenario.Spec)), list func(*scenario.Spec) *[]T) {
	if n := len(*list(sp)); n > 1 {
		for i := range n {
			add(func(c *scenario.Spec) {
				l := list(c)
				*l = slices.Delete(*l, i, i+1)
			})
		}
	}
}

func confKeys(m map[string]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Deterministic order; the shrink loop's outcome must not depend on
	// map iteration.
	sort.Strings(keys)
	return keys
}
