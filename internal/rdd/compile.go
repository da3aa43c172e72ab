package rdd

import (
	"fmt"

	"sae/internal/engine"
	"sae/internal/engine/job"
)

// stagePlan is one compiled stage: read base (source or shuffle), apply the
// narrow chain, then either feed a downstream wide node's shuffle or
// materialize the action result.
type stagePlan struct {
	id    int
	name  string
	base  *node   // source or wide node whose output this stage consumes
	chain []*node // narrow nodes applied in order
	// sink: exactly one of the two.
	sinkWide *node  // route output into this wide node's shuffle
	saveFile string // "" unless the action is a save
	isAction bool
}

// runState carries the real data between stages of one run.
type runState struct {
	// shuffle[wideID][reduce] accumulates records routed to each reduce
	// partition.
	shuffle map[int][][]any
	// results[task] is the final stage's output.
	results [][]any
	// emitted[{stage, task}] marks map tasks whose records are already in
	// the shuffle buckets. Task attempts replayed after an injected fault
	// or executor loss re-run the whole generator (the sim only no-ops the
	// device charges), so without this guard a retry would append its
	// records twice. Sibling map stages run concurrently under the DAG
	// scheduler, but the sim is single-threaded and deterministic, so
	// bucket append order — hence any order-sensitive gather — replays
	// identically.
	emitted map[[2]int]bool
}

// runJob materializes any cached dependencies, then compiles the plan
// rooted at target and executes it on a fresh simulated cluster.
func runJob(c *Context, target *node, action, outputFile string) ([][]any, *engine.JobReport, error) {
	if err := c.ensureCached(target); err != nil {
		return nil, nil, err
	}
	return runJobNoCache(c, target, action, outputFile)
}

// runJobNoCache assumes cached dependencies are already materialized.
func runJobNoCache(c *Context, target *node, action, outputFile string) ([][]any, *engine.JobReport, error) {
	plans, err := compile(c, target, action, outputFile)
	if err != nil {
		return nil, nil, err
	}
	state := &runState{shuffle: make(map[int][][]any), emitted: make(map[[2]int]bool)}
	var inputs []engine.Input
	seenFiles := map[string]bool{}
	spec := &job.JobSpec{Name: action}
	// wideMapStages[wideID] lists the engine stage IDs feeding that
	// wide node's shuffle.
	wideMapStages := map[int][]int{}

	for _, pl := range plans {
		st := &job.StageSpec{
			ID:       pl.id,
			Name:     pl.name,
			NumTasks: pl.base.partitions,
		}
		if pl.base.kind == kindSource && pl.base.file != "" && pl.base.cached == nil {
			st.InputFile = pl.base.file
			if !seenFiles[pl.base.file] {
				seenFiles[pl.base.file] = true
				inputs = append(inputs, engine.Input{Name: pl.base.file, Size: pl.base.bytes})
			}
		}
		if pl.base.kind == kindWide && pl.base.cached == nil {
			st.ShuffleFrom = append(st.ShuffleFrom, wideMapStages[pl.base.id]...)
			if len(st.ShuffleFrom) == 0 {
				return nil, nil, fmt.Errorf("rdd: wide node %d has no map stages", pl.base.id)
			}
		}
		if pl.sinkWide != nil {
			wideMapStages[pl.sinkWide.id] = append(wideMapStages[pl.sinkWide.id], pl.id)
			if state.shuffle[pl.sinkWide.id] == nil {
				state.shuffle[pl.sinkWide.id] = make([][]any, pl.sinkWide.partitions)
			}
		}
		if pl.isAction {
			state.results = make([][]any, st.NumTasks)
			st.OutputFile = pl.saveFile
		}
		st.Work = c.stageWork(pl, state)
		spec.Stages = append(spec.Stages, st)
	}

	opts := engine.Options{
		Cluster:   c.opts.Cluster,
		BlockSize: c.opts.BlockSize,
		Policy:    c.opts.Policy,
		Faults:    c.opts.Faults,
		Inputs:    inputs,
	}
	rep, err := engine.Run(opts, spec)
	if err != nil {
		return nil, nil, err
	}
	return state.results, rep, nil
}

// compile cuts the plan into stages in dependency order. The emitted
// ShuffleFrom lists are the job's real DAG edges: the engine's stage-DAG
// scheduler runs stages with no path between them concurrently, so the
// sibling map stages feeding a multi-parent wide node (both sides of a
// join, the parents of a union's shuffle) overlap on the cluster, while
// each reduce stage still waits for all of its map stages.
func compile(c *Context, target *node, action, outputFile string) ([]*stagePlan, error) {
	var plans []*stagePlan
	// compiled[wideID] guards against emitting a wide node's map stages
	// twice when its output is consumed via several paths.
	compiled := map[int]bool{}

	// emitWide recursively emits, for wide node w, the map stages of all
	// its parents (after their own dependencies).
	var emitWide func(w *node) error
	emitWide = func(w *node) error {
		if compiled[w.id] {
			return nil
		}
		compiled[w.id] = true
		for _, parent := range w.parents {
			base, chain, err := splitChain(parent)
			if err != nil {
				return err
			}
			if base.kind == kindWide && base.cached == nil {
				if err := emitWide(base); err != nil {
					return err
				}
			}
			plans = append(plans, &stagePlan{
				id:       len(plans),
				name:     fmt.Sprintf("map-%d", w.id),
				base:     base,
				chain:    chain,
				sinkWide: w,
			})
		}
		return nil
	}

	base, chain, err := splitChain(target)
	if err != nil {
		return nil, err
	}
	if base.kind == kindWide && base.cached == nil {
		if err := emitWide(base); err != nil {
			return nil, err
		}
	}
	plans = append(plans, &stagePlan{
		id:       len(plans),
		name:     action,
		base:     base,
		chain:    chain,
		saveFile: outputFile,
		isAction: true,
	})
	return plans, nil
}

// splitChain walks up from n through narrow nodes to the stage base,
// returning the base and the narrow chain in application order.
func splitChain(n *node) (*node, []*node, error) {
	var rev []*node
	cur := n
	for cur.kind == kindNarrow && cur.cached == nil {
		rev = append(rev, cur)
		if len(cur.parents) != 1 {
			return nil, nil, fmt.Errorf("rdd: narrow node %d has %d parents", cur.id, len(cur.parents))
		}
		cur = cur.parents[0]
	}
	chain := make([]*node, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		chain = append(chain, rev[i])
	}
	return cur, chain, nil
}

// stageWork builds the per-task operation generators of one stage.
func (c *Context) stageWork(pl *stagePlan, state *runState) func(int) job.Ops {
	return func(task int) job.Ops {
		return &taskOps{pl: pl, state: state, task: task, recCPU: c.opts.RecordCPUSeconds}
	}
}

// taskOps is one task attempt as a job.Ops generator: it acquires the stage
// input, applies the narrow chain and emits, charging the simulated devices
// one operation at a time and doing the real computation on the real records
// between two operations.
type taskOps struct {
	pl      *stagePlan
	state   *runState
	task    int
	recCPU  float64
	records []any
	// at is the step Next takes next; link counts the narrow nodes charged.
	at   taskStep
	link int
}

type taskStep int

const (
	stepLoad     taskStep = iota // pick up the stage input's real records
	stepDrain                    // read the assigned input bytes chunk by chunk
	stepGather                   // wide base: charge the gather...
	stepGathered                 // ...and run it
	stepChain                    // apply the narrow chain, one charge per node
	stepRoute                    // wide sink: route into the shuffle buckets
	stepResult                   // action: hand the records to the driver
	stepDone
)

// compute charges share × the per-record operator cost for every record held.
func (o *taskOps) compute(share float64) job.Op {
	return job.Op{Kind: job.OpCompute, Seconds: float64(len(o.records)) * o.recCPU * share}
}

// Next implements job.Ops.
func (o *taskOps) Next(_ job.TaskContext, got int64) job.Op {
	pl, task := o.pl, o.task
	for {
		switch o.at {
		case stepLoad:
			var parts [][]any
			switch {
			case pl.base.cached != nil:
				parts = pl.base.cached
			case pl.base.kind == kindSource:
				parts = pl.base.content
			case pl.base.kind == kindWide:
				parts = o.state.shuffle[pl.base.id]
			default:
				return job.Op{Err: fmt.Errorf("rdd: stage %d has invalid base kind %d", pl.id, pl.base.kind)}
			}
			if task < len(parts) {
				o.records = parts[task]
			}
			if pl.base.cached != nil {
				// Materialized by Cache: an in-memory read, no device
				// charges beyond deserialization.
				o.at = stepChain
				return o.compute(0.1)
			}
			o.at = stepDrain
			return job.Op{Kind: job.OpReadInput, Bytes: job.ChunkBytes}
		case stepDrain:
			if got > 0 {
				return job.Op{Kind: job.OpReadInput, Bytes: job.ChunkBytes}
			}
			// Input exhausted: the deserialization CPU share of the records.
			o.at = stepChain
			if pl.base.kind == kindWide {
				o.at = stepGather
			}
			return o.compute(0.5)
		case stepGather:
			o.at = stepGathered
			return o.compute(1)
		case stepGathered:
			o.records = pl.base.gather(o.records)
			o.at = stepChain
		case stepChain:
			if o.link > 0 {
				var next []any
				for _, r := range o.records {
					next = append(next, pl.chain[o.link-1].narrow(r)...)
				}
				o.records = next
			}
			if o.link < len(pl.chain) {
				o.link++
				return o.compute(1)
			}
			if pl.sinkWide != nil {
				o.at = stepRoute
				return o.compute(1)
			}
			o.at = stepResult
			if pl.saveFile != "" {
				var bytes int64
				for _, r := range o.records {
					bytes += sizeOf(r)
				}
				return job.Op{Kind: job.OpWriteOutput, Bytes: bytes}
			}
		case stepRoute:
			var bytes int64
			buckets := o.state.shuffle[pl.sinkWide.id]
			key := [2]int{pl.id, task}
			first := !o.state.emitted[key]
			for _, r := range o.records {
				p := pl.sinkWide.route(task, r)
				if p < 0 || p >= len(buckets) {
					return job.Op{Err: fmt.Errorf("rdd: route sent record to partition %d of %d", p, len(buckets))}
				}
				if first {
					buckets[p] = append(buckets[p], r)
				}
				bytes += sizeOf(r)
			}
			// The append loop runs inside one Next, so it is atomic in
			// virtual time: exactly one attempt emits, replays only
			// re-charge the device work.
			o.state.emitted[key] = true
			o.at = stepDone
			return job.Op{Kind: job.OpWriteShuffle, Bytes: bytes}
		case stepResult:
			o.state.results[task] = o.records
			fallthrough
		default:
			return job.Op{}
		}
	}
}
