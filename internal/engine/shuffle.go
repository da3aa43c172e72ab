package engine

import (
	"fmt"
	"sort"
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
// stages fetch their share from each source node. Keys carry the job ID so
// concurrent jobs with identical stage IDs never alias each other's output.
// When an executor is lost, every output on its node is invalidated and the
// driver resubmits the owning map tasks (lineage recovery); regenerated
// registrations replace the lost entries and are counted as recovered bytes,
// attributed to the owning job.
type shuffleRegistry struct {
	// outputs[key] lists registered map outputs in registration order.
	outputs map[setKey][]mapOutput
	// index[key][task] locates a task's entry in outputs[key].
	index map[setKey]map[int]int
	// nodeGen[node] counts losses on node; fetch plans snapshot it so a
	// plan computed before a loss fails validation even after the lost
	// outputs were regenerated elsewhere.
	nodeGen map[int]int
	// recovered[job] is the total bytes re-registered for lost outputs of
	// that job.
	recovered map[int]int64
	// byNode is reducePlan's scratch: bytes per source node, zeroed on exit.
	byNode []int64
}

func newShuffleRegistry() *shuffleRegistry {
	return &shuffleRegistry{
		outputs:   make(map[setKey][]mapOutput),
		index:     make(map[setKey]map[int]int),
		nodeGen:   make(map[int]int),
		recovered: make(map[int]int64),
	}
}

// addMapOutput registers bytes of shuffle output that task of key spilled
// on node, and reports the registry's verdict. The first successful
// registration wins (a losing speculative copy's duplicate is dropped); a
// registration for a lost entry replaces it and counts as recovery.
func (r *shuffleRegistry) addMapOutput(key setKey, task, node int, bytes int64) ShuffleOutcome {
	if bytes <= 0 {
		return ShuffleEmpty
	}
	idx := r.index[key]
	if idx == nil {
		idx = make(map[int]int)
		r.index[key] = idx
	}
	if slot, ok := idx[task]; ok {
		out := &r.outputs[key][slot]
		if !out.lost {
			return ShuffleDuplicate // an earlier attempt already won
		}
		r.recovered[key.job] += bytes
		*out = mapOutput{task: task, node: node, bytes: bytes}
		return ShuffleRecovered
	}
	idx[task] = len(r.outputs[key])
	r.outputs[key] = append(r.outputs[key], mapOutput{task: task, node: node, bytes: bytes})
	return ShuffleAccepted
}

// totalBytes returns the key's total currently-valid shuffle output.
func (r *shuffleRegistry) totalBytes(key setKey) int64 {
	var total int64
	for _, out := range r.outputs[key] {
		if !out.lost {
			total += out.bytes
		}
	}
	return total
}

// registeredBytes returns the currently-valid shuffle output registered
// across every task set — the telemetry plane's cluster-wide shuffle gauge.
// The sum is iteration-order independent, so ranging the map is safe.
func (r *shuffleRegistry) registeredBytes() int64 {
	var total int64
	for key := range r.outputs {
		total += r.totalBytes(key)
	}
	return total
}

// removeNode invalidates every registered map output on node (the node's
// executor crashed, taking its local shuffle files with it) and bumps the
// node's generation so outstanding fetch plans go stale.
func (r *shuffleRegistry) removeNode(node int) {
	r.nodeGen[node]++
	for key := range r.outputs {
		outs := r.outputs[key]
		for i := range outs {
			if outs[i].node == node {
				outs[i].lost = true
			}
		}
	}
}

// hasOutput reports whether node still holds any valid registered map
// output. Finished jobs' registrations are dropped (dropJob), so a true
// result means taking the node away would cost an unfinished job data.
func (r *shuffleRegistry) hasOutput(node int) bool {
	for _, outs := range r.outputs {
		for _, out := range outs {
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
	for key := range r.outputs {
		if key.job == job {
			delete(r.outputs, key)
			delete(r.index, key)
		}
	}
}

// lostTasks returns the sorted task indices of key whose registered output
// is currently lost.
func (r *shuffleRegistry) lostTasks(key setKey) []int {
	var tasks []int
	for _, out := range r.outputs[key] {
		if out.lost {
			tasks = append(tasks, out.task)
		}
	}
	sort.Ints(tasks)
	return tasks
}

// missing reports whether any of the given stages of job has lost output,
// i.e. whether a reduce task fetching from them would under-read.
func (r *shuffleRegistry) missing(job int, from []int) bool {
	for _, stage := range from {
		for _, out := range r.outputs[setKey{job, stage}] {
			if out.lost {
				return true
			}
		}
	}
	return false
}

// recoveredBytes returns the total bytes regenerated for lost outputs of
// job.
func (r *shuffleRegistry) recoveredBytes(job int) int64 { return r.recovered[job] }

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
// shuffleRegistry.missing).
func (r *shuffleRegistry) reducePlan(job int, from []int, numTasks, idx int) []segment {
	if numTasks <= 0 {
		panic(fmt.Sprintf("engine: reducePlan with %d tasks", numTasks))
	}
	// Node IDs are dense (0..n-1), so the per-node sums live in a reusable
	// slice — all zero between calls — and reading it back in index order is
	// the ascending node order, with no map and no sort.
	byNode := r.byNode
	n := 0 // nodes with a non-zero sum
	for _, st := range from {
		for _, out := range r.outputs[setKey{job, st}] {
			if out.lost {
				continue
			}
			base := out.bytes / int64(numTasks)
			if int64(idx) < out.bytes%int64(numTasks) {
				base++
			}
			if out.node >= len(byNode) {
				byNode = append(byNode, make([]int64, out.node+1-len(byNode))...)
			}
			if base > 0 && byNode[out.node] == 0 {
				n++
			}
			byNode[out.node] += base
		}
	}
	r.byNode = byNode
	plan := make([]segment, 0, n)
	for node, bytes := range byNode {
		if bytes > 0 {
			plan = append(plan, segment{node: node, bytes: bytes, gen: r.nodeGen[node]})
			byNode[node] = 0
		}
	}
	return plan
}
