// Package dfs is an HDFS-like distributed file system model: files are split
// into fixed-size blocks, each replicated on a set of nodes. The engine uses
// it for data ingestion (with locality-aware reads) and output writing, in
// blocks of the run's split size (files.maxPartitionBytes or the workload's).
// As in the paper's setup, running with replication equal to the cluster size
// makes every read node-local.
//
// Input files are laid out in full by Create. An input's block table is a
// function of five values — the file's name and size, its effective
// replication, the cluster's node count and the block size — and nothing
// writes to it once made, so file systems share tables: the process keeps a
// bounded list of the tables Create made or returned last, and Create returns
// the one made from the same five values, whichever file system made it, on
// whichever goroutine.
//
// An output file keeps only what a reader can observe of it: the bytes each
// node has written. A write costs its disk I/O on the writer's node
// (StartWrite) and one addition (FinishWrite). Only when a stage opens the
// file as input does Open lay out its blocks — the nodes in ascending order,
// each node's bytes in blocks of the file system's block size, the last one
// partial, with the writer as the one replica — and it keeps that layout
// until the next write.
package dfs

import (
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"sync"

	"sae/internal/cluster"
	"sae/internal/sim"
)

// FS is a distributed file system namespace over a cluster.
type FS struct {
	cluster   *cluster.Cluster
	blockSize int64
	files     map[string]*File
	fault     FaultModel
	sumBuf    []byte // blockSum scratch
	ids       []int  // identity's array
}

// layout is one input block table and the values Create made it from.
type layout struct {
	key    layoutKey
	blocks []Block
}

// layoutKey is everything an input's block table depends on: the replication
// is the effective one, after Create's clamp to the node count.
type layoutKey struct {
	name               string
	size, blockSize    int64
	replication, nodes int
}

// tables is the process's list of recent input block tables, the one Create
// returned last at the end, with the blocks they hold, each table counted one
// more than its length. Tables are never written once made — Open lays a
// written file out in a new array, and FinishWrite only reslices — so file
// systems share them, concurrently too.
var tables struct {
	sync.Mutex
	list   []layout
	blocks int
}

// maxTableBlocks bounds the blocks the list keeps: the inputs of every paper
// artifact at scale 1 fit many times over, and a larger table is not kept.
const maxTableBlocks = 1 << 16

// DropTables empties the list of recent input tables, so the Create calls
// that follow lay their files out afresh.
func DropTables() {
	tables.Lock()
	tables.list, tables.blocks = nil, 0
	tables.Unlock()
}

// FaultModel lets the engine inject gray failures into block reads without
// the file system knowing anything about chaos plans. Both hooks may be nil
// (no faults). They must be pure functions of their arguments for the run to
// stay deterministic.
type FaultModel struct {
	// Unreachable reports whether a node cannot serve remote reads right
	// now (dead, or network-partitioned).
	Unreachable func(node int) bool
	// Rotten reports whether the replica of the block with checksum sum
	// stored on node is bit-rotten: its data will fail verification. Rot
	// is permanent per (block, node) — re-reads fail identically.
	Rotten func(sum uint32, node int) bool
}

// SetFaultModel installs the gray-failure hooks consulted by replica
// selection and checksum verification.
func (fs *FS) SetFaultModel(m FaultModel) { fs.fault = m }

// New creates an empty file system with the given positive block size.
func New(c *cluster.Cluster, blockSize int64) *FS {
	if blockSize <= 0 {
		panic(fmt.Sprintf("dfs: non-positive block size %d", blockSize))
	}
	return &FS{cluster: c, blockSize: blockSize, files: make(map[string]*File)}
}

// File is a stored file with its block layout.
type File struct {
	Name   string
	Size   int64
	Blocks []Block
	// created counts the blocks Create laid out, which lead Blocks.
	created int
	// written holds the bytes each node has written to the file, indexed by
	// node; nil until the file's first write. Blocks past created are Open's
	// layout of it, dropped by the next write.
	written []int64
}

// Block is one replicated chunk of a file.
type Block struct {
	Index int
	Size  int64
	// Replicas lists the node IDs holding a copy, ascending (Create and
	// Open keep it so; PickReplica relies on it). Blocks of a fully
	// replicated file, blocks n apart in a partially replicated one, and
	// blocks written by one node share one slice: treat it as read-only.
	Replicas []int
	// Sum is the block's CRC32 (IEEE) checksum, recorded at creation.
	// Readers verify the data they fetch against it and fail over to
	// another replica on mismatch, as HDFS does.
	Sum uint32
}

// blockSum derives a block's CRC32 from its identity. Block payloads are not
// materialized in the simulation, so the checksum covers the metadata that
// uniquely names the data; what matters for the protocol is that it is a
// stable per-block value that a rotten replica fails to reproduce.
func (fs *FS) blockSum(name string, index int, size int64) uint32 {
	// "name#index#size", formatted into a buffer the file system reuses
	// (crc32's dispatch through a function variable defeats a stack one).
	b := append(fs.sumBuf[:0], name...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(index), 10)
	b = append(b, '#')
	b = strconv.AppendInt(b, size, 10)
	fs.sumBuf = b
	return crc32.ChecksumIEEE(b)
}

// maxBlocks bounds the blocks of one file, whatever the scale factor: some
// 1 200 times the largest committed input (svm, 3 434 blocks at scale 1).
const maxBlocks = 1 << 22

// blocks counts the blocks of a file of size bytes (size+blockSize-1 would
// overflow near MaxInt64); past maxBlocks it is an error naming the file.
func (fs *FS) blocks(name string, size int64) (int, error) {
	nb := size / fs.blockSize
	if size%fs.blockSize != 0 {
		nb++
	}
	if nb > maxBlocks {
		return 0, fmt.Errorf("dfs: file %q of %d bytes needs %d blocks, more than %d", name, size, nb, maxBlocks)
	}
	return int(nb), nil
}

// Create materializes a file's metadata: size split into blocks, each
// replicated on `replication` nodes chosen round-robin (HDFS default
// placement approximated deterministically), or the table the list of recent
// ones holds for the same file. It does not charge any I/O — use it for
// pre-loaded input data. A file of over 2^22 blocks is an error.
func (fs *FS) Create(name string, size int64, replication int) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if size < 0 {
		return nil, fmt.Errorf("dfs: negative size %d for %q", size, name)
	}
	nblocks, err := fs.blocks(name, size)
	if err != nil {
		return nil, err
	}
	n := fs.cluster.Size()
	if replication <= 0 || replication > n {
		replication = n
	}
	key := layoutKey{name: name, size: size, blockSize: fs.blockSize, replication: replication, nodes: n}
	f := &File{Name: name, Size: size, Blocks: fs.table(key, nblocks), created: nblocks}
	fs.files[name] = f
	return f, nil
}

// table returns the list's table made from key, moved to the end, or else
// lays the file out in nblocks blocks and adds its table, dropping the least
// recent ones past maxTableBlocks.
func (fs *FS) table(key layoutKey, nblocks int) []Block {
	tables.Lock()
	defer tables.Unlock()
	for i, l := range tables.list {
		if l.key == key {
			tables.list = append(slices.Delete(tables.list, i, i+1), l)
			return l.blocks
		}
	}
	blocks := fs.layOut(key.name, key.size, key.replication, nblocks)
	if nblocks < maxTableBlocks {
		tables.list = append(tables.list, layout{key, blocks})
		tables.blocks += nblocks + 1
		for tables.blocks > maxTableBlocks {
			tables.blocks -= len(tables.list[0].blocks) + 1
			tables.list = slices.Delete(tables.list, 0, 1)
		}
	}
	return blocks
}

// layOut makes the block table of a file of size bytes in nblocks blocks,
// each on replication of the cluster's nodes.
func (fs *FS) layOut(name string, size int64, replication, nblocks int) []Block {
	n := fs.cluster.Size()
	// One array holds every replica list: [0..n) when every node holds every
	// block, else one list per residue of the block index modulo n — a
	// block's nodes depend on nothing else — which blocks n apart share.
	ids := fs.identity(n)
	if replication < n {
		ids = make([]int, min(nblocks, n)*replication)
	}
	blocks := make([]Block, 0, nblocks)
	for idx := range nblocks {
		bs := min(fs.blockSize, size-int64(idx)*fs.blockSize)
		replicas := ids
		if replication < n {
			first := idx % n
			at := first * replication
			replicas = ids[at : at+replication : at+replication]
			if idx < n {
				// Nodes first … first+replication-1, modulo n, written
				// ascending: the ones that wrapped past node n-1 first.
				wrapped := max(first+replication-n, 0)
				for r := range replicas {
					if r < wrapped {
						replicas[r] = r
					} else {
						replicas[r] = first + r - wrapped
					}
				}
			}
		}
		blocks = append(blocks, Block{
			Index: idx, Size: bs, Replicas: replicas,
			Sum: fs.blockSum(name, idx, bs),
		})
	}
	return blocks
}

// Open returns the file's metadata, first laying out what the cluster wrote
// to it since the last layout (see the package doc) after Create's blocks. A
// layout is a new array: blocks taken from an earlier one never change.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q not found", name)
	}
	if f.written != nil && len(f.Blocks) == f.created {
		fs.layout(f)
	}
	return f, nil
}

// layout appends the blocks of f's written bytes to Create's, in a new array.
func (fs *FS) layout(f *File) {
	nb := int64(f.created)
	for _, w := range f.written {
		nb += (w + fs.blockSize - 1) / fs.blockSize // written bytes are far from MaxInt64
	}
	if nb == int64(f.created) {
		return
	}
	blocks := append(make([]Block, 0, nb), f.Blocks...)
	ids := fs.identity(len(f.written))
	for node, w := range f.written {
		for off := int64(0); off < w; off += fs.blockSize {
			idx, size := len(blocks), min(fs.blockSize, w-off)
			blocks = append(blocks, Block{
				Index: idx, Size: size, Replicas: ids[node : node+1 : node+1],
				Sum: fs.blockSum(f.Name, idx, size),
			})
		}
	}
	f.Blocks = blocks
}

// PickReplica returns the reader's preferred live replica of b: the nearest
// replica (local first, then ascending node-ID distance — the flat-topology
// stand-in for rack locality — lower ID on ties) that is not in the bad set
// and, for remote replicas, not unreachable under the fault model. A local
// replica is always tried — its disk needs no network. ok is false when every
// replica is bad or unreachable. A nil bad set is empty.
//
// Replicas is sorted, so that order is a walk outward from the reader's
// position in it: a reader holding a good replica — every read of a fully
// replicated file — is answered after one binary search, and nothing is
// copied or sorted on the way to a remote one.
func (fs *FS) PickReplica(b Block, reader int, bad map[int]bool) (src int, ok bool) {
	hi, _ := slices.BinarySearch(b.Replicas, reader)
	lo := hi - 1
	for lo >= 0 || hi < len(b.Replicas) {
		var r int
		if hi == len(b.Replicas) || lo >= 0 && reader-b.Replicas[lo] <= b.Replicas[hi]-reader {
			r = b.Replicas[lo]
			lo--
		} else {
			r = b.Replicas[hi]
			hi++
		}
		if bad[r] || r != reader && fs.fault.Unreachable != nil && fs.fault.Unreachable(r) {
			continue
		}
		return r, true
	}
	return -1, false
}

// ReadSum returns the checksum the replica on node actually serves for b:
// the block's recorded Sum, or a corrupted value if the replica is rotten.
// Callers compare against b.Sum to detect corruption.
func (fs *FS) ReadSum(b Block, node int) uint32 {
	if fs.fault.Rotten != nil && fs.fault.Rotten(b.Sum, node) {
		return b.Sum ^ 0xdeadbeef
	}
	return b.Sum
}

// StartWrite begins appending bytes to (or creating) an output file from node
// writer: it opens the file and queues the write on the writer's disk,
// reporting whether p is owed a wake (see device.Disk.StartWrite). Once the
// write has completed — at once, if nothing was queued — the caller records
// it with FinishWrite. Replication traffic is not charged: the paper's
// I/O accounting (Spark task metrics) counts task-level bytes, not HDFS
// pipeline copies.
func (fs *FS) StartWrite(p *sim.Proc, writer int, name string, bytes int64) (f *File, parked bool) {
	if bytes < 0 {
		panic(fmt.Sprintf("dfs: negative write %d", bytes))
	}
	f, ok := fs.files[name]
	if !ok {
		f = &File{Name: name}
		fs.files[name] = f
	}
	return f, fs.cluster.Node(writer).Disk.StartWrite(p, bytes)
}

// FinishWrite records a write StartWrite began: it adds the bytes to what the
// writer's node has written to f, and drops the layout Open last gave f.
func (fs *FS) FinishWrite(f *File, writer int, bytes int64) {
	if f.written == nil {
		f.written = make([]int64, fs.cluster.Size())
	}
	f.written[writer] += bytes
	f.Size += bytes
	f.Blocks = f.Blocks[:f.created:f.created]
}

// identity returns [0, 1, …, n-1] from one array the file system grows: the
// replica list of a fully replicated file and, from index w on, of a block
// node w writes.
func (fs *FS) identity(n int) []int {
	for len(fs.ids) < n {
		fs.ids = append(fs.ids, len(fs.ids))
	}
	return fs.ids[:n:n]
}

// Split returns split s of blocks cut into n contiguous input splits of
// near-equal block count, one per task, in block order: block i belongs to
// split i*n/len(blocks). If there are fewer blocks than n, some splits are
// empty (nil). A split is a read-only window onto blocks, not a copy; its
// capacity ends where it does, so an append to it cannot reach its neighbour.
func Split(blocks []Block, n, s int) []Block {
	nb := len(blocks)
	lo, hi := (s*nb+n-1)/n, ((s+1)*nb+n-1)/n // the first blocks of splits s and s+1
	if hi == lo {
		return nil
	}
	return blocks[lo:hi:hi]
}
