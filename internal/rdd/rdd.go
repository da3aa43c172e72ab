// Package rdd is a typed, lineage-based dataset layer in the style of
// Spark's RDD API, compiled onto the simulation engine: transformations
// build a logical plan; actions cut the plan into stages at shuffle
// boundaries and execute them with *real data* flowing through the real
// operators, while every byte read, shuffled or written is charged to the
// simulated devices (a task is a job.Ops generator: the computation runs
// between two device operations). This gives end-to-end correctness testing (the sort
// really sorts, the join really joins) under exactly the executor/scheduler
// mechanics the adaptive policies control.
//
// Because the simulation kernel steps every task on one goroutine, the
// in-memory source, shuffle and result stores need no locking and runs are
// deterministic.
package rdd

import (
	"fmt"
	"sort"

	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/engine"
	"sae/internal/engine/job"
)

// Options configures a Context.
type Options struct {
	// Cluster is the simulated hardware (defaults to 4-node DAS-5).
	Cluster cluster.Config
	// Policy sizes the executor pools (required).
	Policy job.Policy
	// BlockSize is the DFS block size for text inputs (0 = 128 MiB, the
	// catalogue's files.maxPartitionBytes).
	BlockSize int64
	// RecordCPUSeconds is the single-core cost of processing one record
	// through one operator (0 selects 1.5µs).
	RecordCPUSeconds float64
	// Faults is an optional deterministic chaos schedule applied to every
	// action's engine run (see package chaos).
	Faults *chaos.Plan
}

// Context owns a logical plan and executes actions on fresh simulated
// clusters.
type Context struct {
	opts   Options
	nextID int
}

// NewContext returns a context. The zero Options value (except Policy,
// which is required) selects the paper's 4-node cluster.
func NewContext(opts Options) (*Context, error) {
	if opts.Policy == nil {
		return nil, fmt.Errorf("rdd: Options.Policy is required")
	}
	if opts.Cluster.Nodes == 0 {
		opts.Cluster = cluster.DAS5(4)
	}
	if opts.RecordCPUSeconds == 0 {
		opts.RecordCPUSeconds = 1.5e-6
	}
	return &Context{opts: opts}, nil
}

// Pair is a key/value record for wide (shuffled) transformations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Dataset is a typed handle to a plan node.
type Dataset[T any] struct {
	ctx  *Context
	node *node
}

// node kinds.
type nodeKind int

const (
	kindSource nodeKind = iota + 1
	kindNarrow
	kindWide
)

// node is an untyped plan node. Values flow as `any`; the typed API wrappers
// guarantee the dynamic types line up.
type node struct {
	id         int
	kind       nodeKind
	partitions int
	parents    []*node

	// source
	file    string  // DFS file name ("" = in-memory parallelize)
	content [][]any // per-partition records
	bytes   int64   // total on-DFS bytes (file sources)

	// narrow: one input record → zero or more output records.
	narrow func(any) []any

	// cache state (see Cache): wantCache marks the node; cached holds
	// its materialized partitions after the first action.
	wantCache bool
	cached    [][]any

	// wide: route a map-side record (from the given map partition) to a
	// reduce partition...
	route func(mapPart int, v any) int
	// ...and post-process one reduce partition's gathered records
	// (group, merge, sort, join).
	gather func([]any) []any
}

func (c *Context) newNode(kind nodeKind, partitions int, parents ...*node) *node {
	c.nextID++
	return &node{id: c.nextID, kind: kind, partitions: partitions, parents: parents}
}

// Parallelize distributes an in-memory slice over partitions.
func Parallelize[T any](c *Context, data []T, partitions int) *Dataset[T] {
	if partitions <= 0 {
		partitions = c.opts.Cluster.Nodes
	}
	n := c.newNode(kindSource, partitions)
	n.content = make([][]any, partitions)
	for i, v := range data {
		p := i * partitions / max(len(data), 1)
		n.content[p] = append(n.content[p], v)
	}
	return &Dataset[T]{ctx: c, node: n}
}

// TextFile registers lines as a DFS-backed text file split over partitions:
// tasks reading it are charged real disk I/O for the real byte volume.
func TextFile(c *Context, name string, lines []string, partitions int) *Dataset[string] {
	if partitions <= 0 {
		partitions = c.opts.Cluster.Nodes
	}
	n := c.newNode(kindSource, partitions)
	n.file = name
	n.content = make([][]any, partitions)
	for i, l := range lines {
		p := i * partitions / max(len(lines), 1)
		n.content[p] = append(n.content[p], l)
		n.bytes += int64(len(l)) + 1
	}
	return &Dataset[string]{ctx: c, node: n}
}

// Map applies f to every record.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	n := d.ctx.newNode(kindNarrow, d.node.partitions, d.node)
	n.narrow = func(v any) []any { return []any{f(v.(T))} }
	return &Dataset[U]{ctx: d.ctx, node: n}
}

// Filter keeps records satisfying pred.
func Filter[T any](d *Dataset[T], pred func(T) bool) *Dataset[T] {
	n := d.ctx.newNode(kindNarrow, d.node.partitions, d.node)
	n.narrow = func(v any) []any {
		if pred(v.(T)) {
			return []any{v}
		}
		return nil
	}
	return &Dataset[T]{ctx: d.ctx, node: n}
}

// FlatMap expands every record into zero or more records.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	n := d.ctx.newNode(kindNarrow, d.node.partitions, d.node)
	n.narrow = func(v any) []any {
		us := f(v.(T))
		out := make([]any, len(us))
		for i, u := range us {
			out[i] = u
		}
		return out
	}
	return &Dataset[U]{ctx: d.ctx, node: n}
}

// KeyBy turns records into pairs keyed by f.
func KeyBy[K comparable, T any](d *Dataset[T], f func(T) K) *Dataset[Pair[K, T]] {
	return Map(d, func(v T) Pair[K, T] { return Pair[K, T]{Key: f(v), Value: v} })
}

// ReduceByKey merges all values of each key with merge (associative and
// commutative), shuffling into `partitions` reduce partitions.
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], merge func(V, V) V, partitions int) *Dataset[Pair[K, V]] {
	n := wideByKey[K, V](d, partitions)
	n.gather = func(in []any) []any {
		acc := make(map[K]V)
		var order []K
		for _, r := range in {
			p := r.(Pair[K, V])
			if cur, ok := acc[p.Key]; ok {
				acc[p.Key] = merge(cur, p.Value)
			} else {
				acc[p.Key] = p.Value
				order = append(order, p.Key)
			}
		}
		out := make([]any, 0, len(order))
		for _, k := range order {
			out = append(out, Pair[K, V]{Key: k, Value: acc[k]})
		}
		return out
	}
	return &Dataset[Pair[K, V]]{ctx: d.ctx, node: n}
}

// GroupByKey gathers all values of each key into a slice.
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]], partitions int) *Dataset[Pair[K, []V]] {
	n := wideByKey[K, V](d, partitions)
	n.gather = func(in []any) []any {
		groups := make(map[K][]V)
		var order []K
		for _, r := range in {
			p := r.(Pair[K, V])
			if _, ok := groups[p.Key]; !ok {
				order = append(order, p.Key)
			}
			groups[p.Key] = append(groups[p.Key], p.Value)
		}
		out := make([]any, 0, len(order))
		for _, k := range order {
			out = append(out, Pair[K, []V]{Key: k, Value: groups[k]})
		}
		return out
	}
	return &Dataset[Pair[K, []V]]{ctx: d.ctx, node: n}
}

// JoinedRow is one inner-join match.
type JoinedRow[A, B any] struct {
	Left  A
	Right B
}

// joinTag wraps records of either join side through the shuffle.
type joinTag struct {
	side  int
	key   any
	value any
}

// Join inner-joins two keyed datasets.
func Join[K comparable, A, B any](left *Dataset[Pair[K, A]], right *Dataset[Pair[K, B]], partitions int) *Dataset[Pair[K, JoinedRow[A, B]]] {
	c := left.ctx
	if partitions <= 0 {
		partitions = max(left.node.partitions, right.node.partitions)
	}
	lt := Map(left, func(p Pair[K, A]) joinTag { return joinTag{side: 0, key: p.Key, value: p.Value} })
	rt := Map(right, func(p Pair[K, B]) joinTag { return joinTag{side: 1, key: p.Key, value: p.Value} })
	n := c.newNode(kindWide, partitions, lt.node, rt.node)
	n.route = func(_ int, v any) int { return hashAny(v.(joinTag).key, partitions) }
	n.gather = func(in []any) []any {
		ls := make(map[K][]A)
		rs := make(map[K][]B)
		var order []K
		for _, r := range in {
			t := r.(joinTag)
			k := t.key.(K)
			if t.side == 0 {
				if _, seen := ls[k]; !seen {
					if _, also := rs[k]; !also {
						order = append(order, k)
					}
				}
				ls[k] = append(ls[k], t.value.(A))
			} else {
				if _, seen := rs[k]; !seen {
					if _, also := ls[k]; !also {
						order = append(order, k)
					}
				}
				rs[k] = append(rs[k], t.value.(B))
			}
		}
		var out []any
		for _, k := range order {
			for _, a := range ls[k] {
				for _, b := range rs[k] {
					out = append(out, Pair[K, JoinedRow[A, B]]{Key: k, Value: JoinedRow[A, B]{Left: a, Right: b}})
				}
			}
		}
		return out
	}
	return &Dataset[Pair[K, JoinedRow[A, B]]]{ctx: c, node: n}
}

// RepartitionByRange shuffles records into partitions by upper bounds:
// partition i receives records with key ≤ bounds[i] (the last partition is
// unbounded), then sorts each partition — Spark's range-partitioned sort.
// len(bounds) must be partitions−1; obtain bounds from Sample.
func RepartitionByRange[T any](d *Dataset[T], bounds []T, less func(a, b T) bool) *Dataset[T] {
	c := d.ctx
	partitions := len(bounds) + 1
	n := c.newNode(kindWide, partitions, d.node)
	n.route = func(_ int, v any) int {
		t := v.(T)
		// Binary search the first bound not less than t.
		lo, hi := 0, len(bounds)
		for lo < hi {
			mid := (lo + hi) / 2
			if less(bounds[mid], t) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	n.gather = func(in []any) []any {
		sort.SliceStable(in, func(i, j int) bool { return less(in[i].(T), in[j].(T)) })
		return in
	}
	return &Dataset[T]{ctx: c, node: n}
}

// SortWithinPartitions sorts each partition locally without shuffling.
func SortWithinPartitions[T any](d *Dataset[T], less func(a, b T) bool) *Dataset[T] {
	n := d.ctx.newNode(kindWide, d.node.partitions, d.node)
	// Identity routing keeps every record in its own partition; the data
	// still flows through the shuffle machinery (local spill and fetch),
	// as a Spark repartition(identity)+sort would.
	n.route = func(mapPart int, _ any) int { return mapPart }
	n.gather = func(in []any) []any {
		sort.SliceStable(in, func(i, j int) bool { return less(in[i].(T), in[j].(T)) })
		return in
	}
	return &Dataset[T]{ctx: d.ctx, node: n}
}

// wideByKey builds a hash-partitioned wide node for Pair datasets.
func wideByKey[K comparable, V any](d *Dataset[Pair[K, V]], partitions int) *node {
	if partitions <= 0 {
		partitions = d.node.partitions
	}
	n := d.ctx.newNode(kindWide, partitions, d.node)
	n.route = func(_ int, v any) int { return hashAny(v.(Pair[K, V]).Key, partitions) }
	return n
}

// hashAny routes a key to a partition with FNV-1a over its formatted value.
// Formatting is slow but type-agnostic; the simulated CPU cost of shuffle
// partitioning is charged separately, so only determinism matters here.
func hashAny(key any, partitions int) int {
	var h uint64 = 14695981039346656037
	s := fmt.Sprintf("%v", key)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int(h % uint64(partitions))
}

// Collect materializes the dataset on the driver, in partition order.
func Collect[T any](d *Dataset[T]) ([]T, *engine.JobReport, error) {
	parts, rep, err := runJob(d.ctx, d.node, "collect", "")
	if err != nil {
		return nil, nil, err
	}
	var out []T
	for _, part := range parts {
		for _, r := range part {
			out = append(out, r.(T))
		}
	}
	return out, rep, nil
}

// Count returns the number of records.
func Count[T any](d *Dataset[T]) (int64, *engine.JobReport, error) {
	parts, rep, err := runJob(d.ctx, d.node, "count", "")
	if err != nil {
		return 0, nil, err
	}
	var n int64
	for _, part := range parts {
		n += int64(len(part))
	}
	return n, rep, nil
}

// Reduce folds all records with merge (associative, commutative).
func Reduce[T any](d *Dataset[T], merge func(T, T) T) (T, *engine.JobReport, error) {
	var zero T
	all, rep, err := Collect(d)
	if err != nil || len(all) == 0 {
		return zero, rep, err
	}
	acc := all[0]
	for _, v := range all[1:] {
		acc = merge(acc, v)
	}
	return acc, rep, nil
}

// Sample returns ~n records drawn deterministically (by stride) from the
// dataset — Spark's sample pass used to derive range-partition bounds.
func Sample[T any](d *Dataset[T], n int) ([]T, *engine.JobReport, error) {
	all, rep, err := Collect(d)
	if err != nil {
		return nil, rep, err
	}
	if n <= 0 || n >= len(all) {
		return all, rep, nil
	}
	stride := len(all) / n
	out := make([]T, 0, n)
	for i := 0; i < len(all) && len(out) < n; i += stride {
		out = append(out, all[i])
	}
	return out, rep, nil
}

// Bounds derives range-partition upper bounds for `partitions` partitions
// from a sample.
func Bounds[T any](sample []T, partitions int, less func(a, b T) bool) []T {
	sorted := append([]T(nil), sample...)
	sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	var bounds []T
	for i := 1; i < partitions; i++ {
		idx := i * len(sorted) / partitions
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		bounds = append(bounds, sorted[idx])
	}
	return bounds
}

// SaveAsTextFile writes the dataset to a DFS output file (marking the final
// stage as I/O for the static solution, like Spark's saveAsTextFile) and
// returns the run report.
func SaveAsTextFile[T any](d *Dataset[T], name string, format func(T) string) (*engine.JobReport, error) {
	wrapped := Map(d, func(v T) string { return format(v) })
	_, rep, err := runJob(wrapped.ctx, wrapped.node, "save", name)
	return rep, err
}
