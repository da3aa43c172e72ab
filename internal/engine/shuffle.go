package engine

import (
	"fmt"
	"slices"
)

// mapOutput is one map task's registered shuffle output.
type mapOutput struct {
	task  int
	node  int
	bytes int64
	// lost marks output that died with its node (executor crash) and has
	// not been regenerated yet.
	lost bool
}

// shuffleRegistry tracks map-output placement per (job, stage) task set,
// like Spark's MapOutputTracker: each completed map task registers how many
// bytes of shuffle data it spilled on which node; reduce tasks of downstream
// stages fetch their share from each source node. When an executor is lost,
// every output on its node is invalidated and the driver resubmits the owning
// map tasks (lineage recovery); regenerated registrations replace the lost
// entries, and the caller credits their bytes to the owning job as recovered.
type shuffleRegistry struct {
	// state[job][stage] holds the task set's registered map outputs and the
	// bookkeeping kept beside them, nil before its first registration.
	state [][]*keyState
	// nodeGen[node] counts losses on node; fetch plans snapshot it so a
	// plan computed before a loss fails validation even after the lost
	// outputs were regenerated elsewhere.
	nodeGen []int
	// byNode is reducePlan's scratch: bytes per source node, zeroed on exit.
	byNode []int64
	// spares is the run's, which keyState's slices are windows of.
	spares *runSpares
}

// newShuffleRegistry returns an empty registry for a cluster of nodes nodes.
func newShuffleRegistry(sp *runSpares, nodes int) *shuffleRegistry {
	return &shuffleRegistry{nodeGen: make([]int, nodes), spares: sp}
}

// lookup returns key's state, or nil if nothing was registered for it.
func (r *shuffleRegistry) lookup(key setKey) *keyState {
	if key.job < len(r.state) && key.stage < len(r.state[key.job]) {
		return r.state[key.job][key.stage]
	}
	return nil
}

// all yields every key's state.
func (r *shuffleRegistry) all(yield func(*keyState) bool) {
	for _, row := range r.state {
		for _, ks := range row {
			if ks != nil && !yield(ks) {
				return
			}
		}
	}
}

// keyState is what the registry keeps per task set: its output list, running
// totals, so the questions asked on every slot offer and telemetry tick never
// walk the outputs, and the reduce-side aggregates built from them. Both
// slices are taken once, at the producing stage's task count, from the run's
// spares.
type keyState struct {
	// outs lists the registered map outputs in registration order.
	outs []mapOutput
	// slot[task] is one more than the index of task's entry in outs, 0 while
	// the task has none.
	slot []int32
	// valid sums the bytes of the outputs not lost; lost counts the others.
	valid int64
	lost  int
	// aggs holds one aggregate per consumer width that has planned against
	// this key. Any change to the valid outputs (a registration accepted or
	// recovered, a node lost) discards them; the next plan rebuilds its own.
	aggs []reduceAgg
}

// reduceAgg is one task set's valid output as a consumer stage of r tasks
// sees it, per source node. A reducer's share of an output is bytes/r plus
// one if its index is below bytes%r, so per node the quotients add up once
// for all reducers and only the remainders depend on the index: task idx gets
// quot + |{rem > idx}|. The remainders are bytes%r, which is why the
// aggregate belongs to (task set, r) and cannot be kept at registration time.
type reduceAgg struct {
	r     int
	nodes []nodeShare // by node ID
}

type nodeShare struct {
	quot int64   // Σ bytes/r over the node's outputs
	rems []int64 // their non-zero bytes%r, ascending
}

// shares returns the key's aggregate for r consumer tasks, building it from
// the outputs on the first plan since they last changed. It counts, then
// fills: the per-node table and all the remainders are exactly sized windows
// of the run's spares, and each node's remainders a window of the latter.
func (ks *keyState) shares(r int, sp *runSpares) []nodeShare {
	for i := range ks.aggs {
		if ks.aggs[i].r == r {
			return ks.aggs[i].nodes
		}
	}
	width, total := 0, 0
	for _, out := range ks.outs {
		if !out.lost {
			width = max(width, out.node+1)
		}
	}
	nodes := sp.shares.take(width)
	// quot counts each node's remainders until the windows are cut.
	for _, out := range ks.outs {
		if !out.lost && out.bytes%int64(r) != 0 {
			nodes[out.node].quot++
			total++
		}
	}
	rems := sp.rems.take(total)
	for i := range nodes {
		n := int(nodes[i].quot)
		nodes[i] = nodeShare{rems: rems[:0:n]}
		rems = rems[n:]
	}
	for _, out := range ks.outs {
		if out.lost {
			continue
		}
		n := &nodes[out.node]
		n.quot += out.bytes / int64(r)
		if rem := out.bytes % int64(r); rem != 0 {
			n.rems = append(n.rems, rem)
		}
	}
	for i := range nodes {
		slices.Sort(nodes[i].rems)
	}
	ks.aggs = append(ks.aggs, reduceAgg{r: r, nodes: nodes})
	return nodes
}

// addMapOutput registers bytes of shuffle output that task of key, a stage of
// numTasks tasks, spilled on node, and reports the registry's verdict. The
// first successful registration wins (a losing speculative copy's duplicate is
// dropped); a registration for a lost entry replaces it and counts as recovery.
func (r *shuffleRegistry) addMapOutput(key setKey, numTasks, task, node int, bytes int64) ShuffleOutcome {
	if bytes <= 0 {
		return ShuffleEmpty
	}
	ks := r.lookup(key)
	if ks == nil {
		ks = &keyState{outs: r.spares.outs.take(numTasks)[:0], slot: r.spares.slots.take(numTasks)}
		if n := key.job + 1 - len(r.state); n > 0 {
			r.state = append(r.state, make([][]*keyState, n)...)
		}
		row := r.state[key.job]
		if n := key.stage + 1 - len(row); n > 0 {
			row = append(row, make([]*keyState, n)...)
			r.state[key.job] = row
		}
		row[key.stage] = ks
	}
	slot := ks.slot[task]
	if slot > 0 && !ks.outs[slot-1].lost {
		return ShuffleDuplicate // an earlier attempt already won
	}
	ks.valid += bytes
	ks.aggs = nil
	if slot > 0 {
		ks.outs[slot-1] = mapOutput{task: task, node: node, bytes: bytes}
		ks.lost--
		return ShuffleRecovered
	}
	ks.outs = append(ks.outs, mapOutput{task: task, node: node, bytes: bytes})
	ks.slot[task] = int32(len(ks.outs))
	return ShuffleAccepted
}

// registeredBytes returns the currently-valid shuffle output registered
// across every task set — the telemetry plane's cluster-wide shuffle gauge.
func (r *shuffleRegistry) registeredBytes() int64 {
	var total int64
	for ks := range r.all {
		total += ks.valid
	}
	return total
}

// removeNode invalidates every registered map output on node (the node's
// executor crashed, taking its local shuffle files with it) and bumps the
// node's generation so outstanding fetch plans go stale.
func (r *shuffleRegistry) removeNode(node int) {
	r.nodeGen[node]++
	for ks := range r.all {
		for i := range ks.outs {
			if out := &ks.outs[i]; out.node == node && !out.lost {
				out.lost = true
				ks.valid -= out.bytes
				ks.lost++
				ks.aggs = nil
			}
		}
	}
}

// hasOutput reports whether node still holds any valid registered map
// output. Finished jobs' registrations are dropped (dropJob), so a true
// result means taking the node away would cost an unfinished job data.
func (r *shuffleRegistry) hasOutput(node int) bool {
	for ks := range r.all {
		for _, out := range ks.outs {
			if !out.lost && out.node == node {
				return true
			}
		}
	}
	return false
}

// dropJob forgets a finished job's registrations (its shuffle files are
// cleaned up, as Spark does at application end).
func (r *shuffleRegistry) dropJob(job int) {
	if job < len(r.state) {
		r.state[job] = nil
	}
}

// lostTasks returns the sorted task indices of key whose registered output
// is currently lost.
func (r *shuffleRegistry) lostTasks(key setKey) []int {
	ks := r.lookup(key)
	if ks == nil {
		return nil
	}
	var tasks []int
	for _, out := range ks.outs {
		if out.lost {
			tasks = append(tasks, out.task)
		}
	}
	slices.Sort(tasks)
	return tasks
}

// missing reports whether any of the given stages of job has lost output,
// i.e. whether a reduce task fetching from them would under-read.
func (r *shuffleRegistry) missing(job int, from []int) bool {
	for _, stage := range from {
		if ks := r.lookup(setKey{job, stage}); ks != nil && ks.lost > 0 {
			return true
		}
	}
	return false
}

// segment is one reduce-side fetch from a source node. gen snapshots the
// node's loss generation at plan time; segmentValid compares it at fetch
// time, so a reduce task holding a plan from before a crash fails its fetch
// instead of silently reading a dead node's data.
type segment struct {
	node  int
	bytes int64
	gen   int
}

// segmentValid reports whether a fetch plan segment is still current.
func (r *shuffleRegistry) segmentValid(s segment) bool {
	return r.nodeGen[s.node] == s.gen
}

// reducePlan returns the per-source-node fetch plan for reduce task idx of
// numTasks, pulling from the given upstream stages of job. Shares divide
// evenly with remainders to the lowest task indices, and segments are
// ordered by node for determinism. Lost outputs are excluded — the driver
// must not launch reduce tasks while any upstream output is missing (see
// shuffleRegistry.missing). A call costs O(nodes·log maps), not O(maps): every
// reducer of a stage reads the same per-node aggregate (see reduceAgg). The
// plan is appended to buf[:0], growing it at most once; buf may be nil.
func (r *shuffleRegistry) reducePlan(job int, from []int, numTasks, idx int, buf []segment) []segment {
	if numTasks <= 0 {
		panic(fmt.Sprintf("engine: reducePlan with %d tasks", numTasks))
	}
	// Node IDs are dense (0..n-1), so the per-node sums live in a reusable
	// slice — all zero between calls — and reading it back in index order is
	// the ascending node order, with no map and no sort.
	byNode := r.byNode
	n := 0 // nodes with a non-zero sum
	for _, st := range from {
		ks := r.lookup(setKey{job, st})
		if ks == nil {
			continue
		}
		shares := ks.shares(numTasks, r.spares)
		if len(shares) > len(byNode) {
			byNode = append(byNode, make([]int64, len(shares)-len(byNode))...)
		}
		for node, sh := range shares {
			// One more byte from each of the node's outputs with rem > idx.
			first, _ := slices.BinarySearch(sh.rems, int64(idx)+1)
			bytes := sh.quot + int64(len(sh.rems)-first)
			if bytes > 0 && byNode[node] == 0 {
				n++
			}
			byNode[node] += bytes
		}
	}
	r.byNode = byNode
	plan := slices.Grow(buf[:0], n)
	for node, bytes := range byNode {
		if bytes > 0 {
			plan = append(plan, segment{node: node, bytes: bytes, gen: r.nodeGen[node]})
			byNode[node] = 0
		}
	}
	return plan
}
