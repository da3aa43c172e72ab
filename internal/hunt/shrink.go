package hunt

import (
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
	dropStr := func(s []string, i int) []string {
		return append(append([]string{}, s[:i]...), s[i+1:]...)
	}
	switch sp.Kind {
	case scenario.KindChaosMatrix:
		for i := range sp.Schedules {
			if len(sp.Schedules) > 1 {
				i := i
				add(func(c *scenario.Spec) { c.Schedules = dropStr(c.Schedules, i) })
			}
		}
		for i := range sp.Policies {
			if len(sp.Policies) > 1 {
				i := i
				add(func(c *scenario.Spec) { c.Policies = dropStr(c.Policies, i) })
			}
		}
	case scenario.KindTenantMatrix:
		for i := range sp.Mixes {
			if len(sp.Mixes) > 1 {
				i := i
				add(func(c *scenario.Spec) {
					c.Mixes = append(append([]scenario.MixSpec{}, c.Mixes[:i]...), c.Mixes[i+1:]...)
				})
			}
		}
		for i := range sp.Schedulers {
			if len(sp.Schedulers) > 1 {
				i := i
				add(func(c *scenario.Spec) { c.Schedulers = dropStr(c.Schedulers, i) })
			}
		}
		for i := range sp.Policies {
			if len(sp.Policies) > 1 {
				i := i
				add(func(c *scenario.Spec) { c.Policies = dropStr(c.Policies, i) })
			}
		}
	case scenario.KindArrivalMatrix:
		if m := sp.Arrival; m != nil {
			for i := range m.Configs {
				if len(m.Configs) > 1 {
					i := i
					add(func(c *scenario.Spec) {
						c.Arrival.Configs = append(append([]scenario.ProvisionSpec{}, c.Arrival.Configs[:i]...), c.Arrival.Configs[i+1:]...)
					})
				}
			}
			for i := range m.Arrivals {
				if len(m.Arrivals) > 1 {
					i := i
					add(func(c *scenario.Spec) {
						c.Arrival.Arrivals = append(append([]scenario.ArrivalProcSpec{}, c.Arrival.Arrivals[:i]...), c.Arrival.Arrivals[i+1:]...)
					})
				}
			}
		}
	case scenario.KindSingle:
		if sp.Expect != nil {
			add(func(c *scenario.Spec) { c.Expect = nil })
		}
	}
	for _, k := range confKeys(sp.Conf) {
		k := k
		add(func(c *scenario.Spec) { delete(c.Conf, k) })
	}
	if sp.Description != "" {
		add(func(c *scenario.Spec) { c.Description = "" })
	}
	return out
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
