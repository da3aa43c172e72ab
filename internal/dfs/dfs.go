// Package dfs is an HDFS-like distributed file system model: files are split
// into fixed-size blocks, each replicated on a set of nodes. The engine uses
// it for data ingestion (with locality-aware reads) and output writing. As
// in the paper's setup, running with replication equal to the cluster size
// makes every read node-local.
package dfs

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strconv"

	"sae/internal/cluster"
	"sae/internal/sim"
)

// DefaultBlockSize matches HDFS 2.x (128 MiB).
const DefaultBlockSize = 128 << 20

// FS is a distributed file system namespace over a cluster.
type FS struct {
	cluster   *cluster.Cluster
	blockSize int64
	files     map[string]*File
	fault     FaultModel
	sumBuf    []byte // blockSum scratch
	// ids[i] == i: Write hands out ids[w:w+1] as the replica list of every
	// block node w writes, instead of one allocation per block.
	ids []int
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

func (fs *FS) unreachable(node int) bool {
	return fs.fault.Unreachable != nil && fs.fault.Unreachable(node)
}

func (fs *FS) rotten(sum uint32, node int) bool {
	return fs.fault.Rotten != nil && fs.fault.Rotten(sum, node)
}

// New creates an empty file system with the given block size (0 selects
// DefaultBlockSize).
func New(c *cluster.Cluster, blockSize int64) *FS {
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize < 0 {
		panic(fmt.Sprintf("dfs: negative block size %d", blockSize))
	}
	return &FS{cluster: c, blockSize: blockSize, files: make(map[string]*File)}
}

// BlockSize returns the file system block size.
func (fs *FS) BlockSize() int64 { return fs.blockSize }

// File is a stored file with its block layout.
type File struct {
	Name   string
	Size   int64
	Blocks []Block
}

// Block is one replicated chunk of a file.
type Block struct {
	Index int
	Size  int64
	// Replicas lists the node IDs holding a copy, ascending (Create and
	// Write keep it so; PickReplica relies on it). Blocks of a fully
	// replicated file, and blocks written by one node, share one slice:
	// treat it as read-only.
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

// LocalTo reports whether the block has a replica on node.
func (b Block) LocalTo(node int) bool {
	for _, r := range b.Replicas {
		if r == node {
			return true
		}
	}
	return false
}

// ReplicasByDistance returns the block's replicas ordered by preference for
// the given reader: a local replica first, then ascending node-ID distance
// (the flat-topology stand-in for rack locality), ties broken by lower ID.
func (b Block) ReplicasByDistance(reader int) []int {
	out := slices.Clone(b.Replicas)
	dist := func(n int) int {
		if n >= reader {
			return n - reader
		}
		return reader - n
	}
	slices.SortFunc(out, func(x, y int) int {
		return cmp.Or(cmp.Compare(dist(x), dist(y)), cmp.Compare(x, y))
	})
	return out
}

// Create materializes a file's metadata: size split into blocks, each
// replicated on `replication` nodes chosen round-robin (HDFS default
// placement approximated deterministically). It does not charge any I/O —
// use it for pre-loaded input data.
func (fs *FS) Create(name string, size int64, replication int) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if size < 0 {
		return nil, fmt.Errorf("dfs: negative size %d for %q", size, name)
	}
	n := fs.cluster.Size()
	if replication <= 0 || replication > n {
		replication = n
	}
	nblocks := int((size + fs.blockSize - 1) / fs.blockSize)
	// One array holds every replica list: [0..n) when every node holds every
	// block, else a list per block.
	var ids []int
	if replication == n {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	} else {
		ids = make([]int, nblocks*replication)
	}
	f := &File{Name: name, Size: size, Blocks: make([]Block, 0, nblocks)}
	for off, idx := int64(0), 0; off < size; off, idx = off+fs.blockSize, idx+1 {
		bs := fs.blockSize
		if rem := size - off; rem < bs {
			bs = rem
		}
		replicas := ids
		if replication < n {
			// Nodes idx%n … idx%n+replication-1, modulo n, written ascending:
			// the ones that wrapped past node n-1 first.
			replicas, ids = ids[:replication:replication], ids[replication:]
			first := idx % n
			wrapped := max(first+replication-n, 0)
			for r := range replicas {
				if r < wrapped {
					replicas[r] = r
				} else {
					replicas[r] = first + r - wrapped
				}
			}
		}
		f.Blocks = append(f.Blocks, Block{
			Index: idx, Size: bs, Replicas: replicas,
			Sum: fs.blockSum(name, idx, bs),
		})
	}
	fs.files[name] = f
	return f, nil
}

// Open returns the file's metadata.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q not found", name)
	}
	return f, nil
}

// Exists reports whether a file exists.
func (fs *FS) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Remove deletes a file's metadata.
func (fs *FS) Remove(name string) {
	delete(fs.files, name)
}

// Files returns the names of all files, sorted.
func (fs *FS) Files() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PickReplica returns the reader's preferred live replica of b: the nearest
// replica (local first, then ascending node-ID distance, lower ID on ties —
// the order of ReplicasByDistance) that is not in the bad set and, for
// remote replicas, not unreachable under the fault model. A local replica is
// always tried — its disk needs no network. ok is false when every replica
// is bad or unreachable. A nil bad set is empty.
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
		if bad[r] || r != reader && fs.unreachable(r) {
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
	if fs.rotten(b.Sum, node) {
		return b.Sum ^ 0xdeadbeef
	}
	return b.Sum
}

// ReadBlock reads one block from node `reader`, blocking p until verified
// bytes are available. It tries replicas nearest-first (local replica, then
// ascending node-ID distance), skipping unreachable nodes; each attempt
// charges the source disk (and the network, for remote replicas) before the
// checksum is verified, so corrupted reads cost real I/O, exactly as in
// HDFS. It reports whether the winning read was node-local, and fails only
// when every replica is unreachable or rotten.
func (fs *FS) ReadBlock(p *sim.Proc, reader int, b Block) (local bool, err error) {
	var bad map[int]bool // made on the first failover; most reads never fail over
	for {
		src, ok := fs.PickReplica(b, reader, bad)
		if !ok {
			return false, fmt.Errorf("dfs: block %d: all %d replicas unreachable or corrupt", b.Index, len(b.Replicas))
		}
		fs.cluster.Node(src).Disk.Read(p, b.Size)
		fs.cluster.Transfer(p, src, reader, b.Size)
		if fs.ReadSum(b, src) == b.Sum {
			return src == reader, nil
		}
		if bad == nil {
			bad = make(map[int]bool)
		}
		bad[src] = true
	}
}

// Write appends bytes to (or creates) an output file from node writer,
// blocking p for the local disk write. Block metadata is recorded with the
// writer as primary replica. Replication traffic is not charged: the paper's
// I/O accounting (Spark task metrics) counts task-level bytes, not HDFS
// pipeline copies.
func (fs *FS) Write(p *sim.Proc, writer int, name string, bytes int64) {
	f, parked := fs.StartWrite(p, writer, name, bytes)
	if parked {
		p.Park()
	}
	fs.FinishWrite(f, writer, bytes)
}

// StartWrite is the first half of Write, up to its disk charge: it opens (or
// creates) the file and queues the write on the writer's disk, reporting
// whether p is owed a wake (see device.Disk.StartWrite). Once the write has
// completed — at once, if nothing was queued — the caller records the block
// with FinishWrite.
func (fs *FS) StartWrite(p *sim.Proc, writer int, name string, bytes int64) (f *File, parked bool) {
	if bytes < 0 {
		panic(fmt.Sprintf("dfs: negative write %d", bytes))
	}
	return fs.openOutput(name), fs.cluster.Node(writer).Disk.StartWrite(p, bytes)
}

// openOutput returns the file called name, creating an empty one if need be.
func (fs *FS) openOutput(name string) *File {
	f, ok := fs.files[name]
	if !ok {
		f = &File{Name: name}
		fs.files[name] = f
	}
	return f
}

// Reserve tells the file system that about blocks more blocks are going to be
// written to the file called name (created empty if absent), so that its block
// array can be sized for them at once: otherwise a stage's output file grows
// by append, one block per write, and allocates — and copies — several times
// what it ends up holding. The array's capacity is the ledger: each call adds
// its blocks to it, so writers announced one after the other, and running side
// by side, all fit. It is only a hint. The array moves once per call, the
// blocks written so far and their numbering are untouched (splits taken before
// keep their contents), and a write past what was announced appends as it
// would have without.
func (fs *FS) Reserve(name string, blocks int) {
	f := fs.openOutput(name)
	if blocks > 0 {
		f.Blocks = append(make([]Block, 0, cap(f.Blocks)+blocks), f.Blocks...)
	}
}

// FinishWrite is the second half of Write: it appends the written block to f.
// The block's index is the file's length now, after the disk write, so
// concurrent writers of one file are numbered in completion order.
func (fs *FS) FinishWrite(f *File, writer int, bytes int64) {
	for len(fs.ids) <= writer {
		fs.ids = append(fs.ids, len(fs.ids))
	}
	f.Blocks = append(f.Blocks, Block{
		Index: len(f.Blocks), Size: bytes, Replicas: fs.ids[writer : writer+1 : writer+1],
		Sum: fs.blockSum(f.Name, len(f.Blocks), bytes),
	})
	f.Size += bytes
}

// Splits partitions a file's blocks into n contiguous input splits of
// near-equal block count, one per task, in block order: block i belongs to
// split i*n/len(Blocks). If the file has fewer blocks than n, some splits are
// empty (nil). A split is a read-only window onto f.Blocks, not a copy; its
// capacity ends where it does, so a later append to the file cannot reach it.
func Splits(f *File, n int) [][]Block {
	if n <= 0 {
		panic(fmt.Sprintf("dfs: non-positive split count %d", n))
	}
	out := make([][]Block, n)
	nb, lo := len(f.Blocks), 0
	for s := range out {
		hi := ((s+1)*nb + n - 1) / n // the first block of split s+1
		if hi > lo {
			out[s] = f.Blocks[lo:hi:hi]
		}
		lo = hi
	}
	return out
}
