package telemetry

import "sae/internal/spares"

// spareChildren holds the child registries Join took back. A recycled
// registry keeps its instruments dormant, its chunks and its layouts, so a run
// on it allocates about what a run on a shared registry does.
var spareChildren = spares.New[*Registry](4)

// Fork returns an empty registry for one run going beside others that
// share r; Join folds it into r.
func (r *Registry) Fork() *Registry {
	if c, ok := spareChildren.Take(); ok {
		return c
	}
	c := NewRegistry()
	c.child = true
	return c
}

// Join folds c, a registry from Fork whose runs have ended, into r as if
// those runs had sampled r itself, after every run r has seen. c's ticks are
// recorded again through r's sampling path, in order, each after c's
// instruments of the tick are registered in r, so layouts, key ticks and
// same-instant merges come out as they do in sequence. At each tick:
//
//   - a plain instrument c had not yet Set holds what its run added, and is
//     rebased on r's value, since counters carry across runs in a shared
//     registry (exact for the integer counts the engine keeps);
//   - a histogram replays c's observations into r's, so r's buckets, count
//     and sum are what observing them in r would have made;
//   - a function-backed instrument or a Set gauge takes c's value as it is,
//     and after the last tick the final value c holds, which the engine
//     freezes when its run closes (Freeze).
//
// r's OnSample hooks do not run. Join takes c back for a later Fork: the
// caller must not use it again.
func (r *Registry) Join(c *Registry) {
	var cur *layout
	tick := 0
	for tk := range c.allTicks {
		if tk.layout != cur {
			cur = tk.layout
			for _, col := range cur.cols {
				r.adopt(col.in)
			}
		}
		for i, col := range cur.cols {
			in := col.in
			if in.fam.typ == TypeHistogram {
				if col == in.cols[0] {
					in.replay(int(tk.vals[i]))
				}
				continue
			}
			in.settle(tk.vals[i], in.abs && in.absTick >= 0 && in.absTick <= tick)
		}
		r.record(tk.at)
		tick++
	}
	for _, f := range c.families {
		for _, in := range f.insts {
			if !in.live {
				continue
			}
			r.adopt(in)
			if f.typ == TypeHistogram {
				in.replay(len(in.obs))
			} else {
				in.settle(in.scalar(), in.abs)
			}
		}
	}
	c.recycle()
}

// adopt registers child instrument in in the parent registry r, once.
func (r *Registry) adopt(in *instrument) {
	if in.peer != nil {
		return
	}
	f := in.fam
	p := r.instrumentLS(f.name, f.help, f.typ, in.labels)
	if f.typ == TypeHistogram && len(p.counts) == 0 {
		p.setBuckets(in.buckets)
	}
	in.peer, in.base = p, p.scalar()
}

// settle gives a child instrument's parent the value v it held at a tick,
// rebased on the parent's value before the join unless abs.
func (in *instrument) settle(v float64, abs bool) {
	p := in.peer
	if !abs {
		v = in.base + v
	}
	p.val, p.fn = v, nil
	if abs {
		p.turnAbs()
	}
}

// replay observes a child histogram's observations up to the n-th in its
// parent.
func (in *instrument) replay(n int) {
	for _, v := range in.obs[in.replayed:n] {
		in.peer.observe(v)
	}
	in.replayed = n
}

// recycle empties a child registry, its instruments left dormant, and pushes
// it on the spares.
func (r *Registry) recycle() {
	for _, f := range r.families {
		f.live = 0
		for _, in := range f.insts {
			*in = instrument{reg: r, fam: f, labels: in.labels, cols: in.cols, absTick: -1,
				buckets: in.buckets[:0], counts: in.counts[:0], obs: in.obs[:0]}
		}
	}
	clear(r.hooks)
	r.hooks = r.hooks[:0]
	clear(r.turned)
	r.turned = r.turned[:0]
	for i, c := range r.chunks {
		r.spareChunks = append(r.spareChunks, c[:0])
		r.chunks[i] = nil
	}
	r.chunks = r.chunks[:0]
	r.layout, r.layouts = nil, r.layouts[:0]
	r.last, r.prev = row{vals: r.last.vals[:0]}, row{vals: r.prev.vals[:0]}
	r.lastOff, r.ticks, r.points = 0, 0, 0
	spareChildren.Put(r)
}

// Freeze replaces every function-backed instrument's function with the
// value it reads now. The engine freezes its registry as its run closes, so
// that neither an export nor a later run's samples read the finished
// engine, whose state the next engine may take over.
func (r *Registry) Freeze() {
	for _, f := range r.families {
		for _, in := range f.insts {
			if in.fn != nil {
				in.val, in.fn = in.fn(), nil
			}
		}
	}
}
