package dfs

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"sae/internal/cluster"
	"sae/internal/device"
	"sae/internal/sim"
)

func testCluster(k *sim.Kernel, nodes int) *cluster.Cluster {
	cfg := cluster.DAS5(nodes)
	cfg.Variability = device.Uniform()
	return cluster.New(k, cfg)
}

// replicasByDistance is the order PickReplica walks, by sorting: the block's
// replicas by preference for the given reader, a local replica first, then
// ascending node-ID distance, ties broken by lower ID.
func replicasByDistance(b Block, reader int) []int {
	out := slices.Clone(b.Replicas)
	dist := func(n int) int { return max(n-reader, reader-n) }
	slices.SortFunc(out, func(x, y int) int {
		return cmp.Or(cmp.Compare(dist(x), dist(y)), cmp.Compare(x, y))
	})
	return out
}

// blockRead is a process reading one block with the file system's read
// primitives, as a task does: it picks the nearest live replica, reads it
// from that node's disk and, when remote, moves it over the network, then
// verifies the checksum the replica served; a rotten replica costs its I/O
// and is ruled out for the next pick. local and err are its outcome.
type blockRead struct {
	proc   sim.Proc
	fs     *FS
	reader int
	b      Block
	bad    map[int]bool
	src    int
	phase  int // 0: pick and read, 1: transfer, 2: verify
	local  bool
	err    error
}

func readBlock(k *sim.Kernel, fs *FS, reader int, b Block) *blockRead {
	r := &blockRead{fs: fs, reader: reader, b: b, bad: map[int]bool{}}
	k.GoStepper(&r.proc, "read", r)
	return r
}

func (r *blockRead) Step() {
	for {
		switch r.phase {
		case 0:
			src, ok := r.fs.PickReplica(r.b, r.reader, r.bad)
			if !ok {
				r.err = fmt.Errorf("block %d: all %d replicas unreachable or corrupt", r.b.Index, len(r.b.Replicas))
				return
			}
			r.src, r.phase = src, 1
			if r.fs.cluster.Node(src).Disk.StartRead(&r.proc, r.b.Size) {
				return
			}
		case 1:
			r.phase = 2
			if r.fs.cluster.StartTransfer(&r.proc, r.src, r.reader, r.b.Size) {
				return
			}
		default:
			if r.fs.ReadSum(r.b, r.src) == r.b.Sum {
				r.local = r.src == r.reader
				return
			}
			r.bad[r.src], r.phase = true, 0
		}
	}
}

// blockWrite is a process writing bytes to "out" as a task does: it starts the
// disk write, and records it once the write has completed.
type blockWrite struct {
	proc   sim.Proc
	fs     *FS
	writer int
	bytes  int64
	f      *File
}

func writeBlock(k *sim.Kernel, fs *FS, writer int, bytes int64) *blockWrite {
	w := &blockWrite{fs: fs, writer: writer, bytes: bytes}
	k.GoStepper(&w.proc, "write", w)
	return w
}

func (w *blockWrite) Step() {
	if w.f == nil {
		var parked bool
		if w.f, parked = w.fs.StartWrite(&w.proc, w.writer, "out", w.bytes); parked {
			return
		}
	}
	w.fs.FinishWrite(w.f, w.writer, w.bytes)
}

func TestCreateBlocks(t *testing.T) {
	k := sim.NewKernel()
	c := testCluster(k, 4)
	fs := New(c, 100)
	f, err := fs.Create("in", 250, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(f.Blocks))
	}
	if f.Blocks[2].Size != 50 {
		t.Fatalf("last block size = %d, want 50", f.Blocks[2].Size)
	}
	for _, b := range f.Blocks {
		if len(b.Replicas) != 4 {
			t.Fatalf("replicas = %d, want 4", len(b.Replicas))
		}
	}
}

func TestCreateDuplicate(t *testing.T) {
	k := sim.NewKernel()
	fs := New(testCluster(k, 2), 128*device.MiB)
	if _, err := fs.Create("x", 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("x", 10, 1); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestOpenMissing(t *testing.T) {
	k := sim.NewKernel()
	fs := New(testCluster(k, 2), 128*device.MiB)
	if _, err := fs.Open("nope"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

func TestFullReplicationIsAlwaysLocal(t *testing.T) {
	k := sim.NewKernel()
	c := testCluster(k, 4)
	fs := New(c, device.MiB)
	f, _ := fs.Create("in", 16*device.MiB, 4)
	for node := 0; node < 4; node++ {
		for _, b := range f.Blocks {
			if !slices.Contains(b.Replicas, node) {
				t.Fatalf("block %d not local to node %d with full replication", b.Index, node)
			}
		}
	}
}

func TestReadBlockLocalVsRemote(t *testing.T) {
	k := sim.NewKernel()
	c := testCluster(k, 4)
	fs := New(c, device.MiB)
	f, _ := fs.Create("in", 2*device.MiB, 1) // replication 1
	r0 := readBlock(k, fs, f.Blocks[0].Replicas[0], f.Blocks[0])
	r1 := readBlock(k, fs, (f.Blocks[0].Replicas[0]+1)%4, f.Blocks[0])
	k.Run()
	if !r0.local || r0.err != nil {
		t.Fatalf("read on replica node: local %v, err %v", r0.local, r0.err)
	}
	if r1.local || r1.err != nil {
		t.Fatalf("read on non-replica node: local %v, err %v", r1.local, r1.err)
	}
}

func TestRemoteReadChargesNetwork(t *testing.T) {
	k := sim.NewKernel()
	c := testCluster(k, 2)
	fs := New(c, device.MiB)
	f, _ := fs.Create("in", device.MiB, 1)
	src := f.Blocks[0].Replicas[0]
	dst := 1 - src
	readBlock(k, fs, dst, f.Blocks[0])
	k.Run()
	if c.Node(dst).NIC.BytesMoved() != device.MiB {
		t.Fatalf("NIC moved %d, want %d", c.Node(dst).NIC.BytesMoved(), device.MiB)
	}
	r, _ := c.Node(src).Disk.Counters()
	if r != device.MiB {
		t.Fatalf("source disk read %d", r)
	}
}

func TestReplicasByDistancePrefersLocalThenClosest(t *testing.T) {
	b := Block{Replicas: []int{0, 2, 5}}
	got := replicasByDistance(b, 2)
	if got[0] != 2 || got[1] != 0 || got[2] != 5 {
		t.Fatalf("order from node 2 = %v, want [2 0 5]", got)
	}
	got = replicasByDistance(b, 4)
	if got[0] != 5 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("order from node 4 = %v, want [5 2 0]", got)
	}
	// Equidistant replicas break ties by lower ID.
	got = replicasByDistance(Block{Replicas: []int{3, 1}}, 2)
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("tie order = %v, want [1 3]", got)
	}
}

func TestReadBlockSkipsUnreachableReplica(t *testing.T) {
	k := sim.NewKernel()
	c := testCluster(k, 4)
	fs := New(c, device.MiB)
	f, _ := fs.Create("in", device.MiB, 2)
	b := f.Blocks[0]
	reader := 3 // no local replica: block 0 lives on nodes 0 and 1
	if slices.Contains(b.Replicas, reader) {
		t.Fatal("test setup: reader should be remote")
	}
	near := replicasByDistance(b, reader)[0]
	fs.SetFaultModel(FaultModel{Unreachable: func(n int) bool { return n == near }})
	r := readBlock(k, fs, reader, b)
	k.Run()
	if r.err != nil || r.local {
		t.Fatalf("local=%v err=%v", r.local, r.err)
	}
	far := replicasByDistance(b, reader)[1]
	if r, _ := c.Node(far).Disk.Counters(); r != b.Size {
		t.Fatalf("fallback replica read %d bytes, want %d", r, b.Size)
	}
	if r, _ := c.Node(near).Disk.Counters(); r != 0 {
		t.Fatalf("unreachable replica served %d bytes", r)
	}
}

func TestReadBlockChecksumFailover(t *testing.T) {
	k := sim.NewKernel()
	c := testCluster(k, 3)
	fs := New(c, device.MiB)
	f, _ := fs.Create("in", device.MiB, 3)
	b := f.Blocks[0]
	// The local replica is rotten: the read must charge the wasted local
	// I/O, then fail over to the next-closest replica.
	fs.SetFaultModel(FaultModel{Rotten: func(sum uint32, n int) bool { return n == 0 }})
	r := readBlock(k, fs, 0, b)
	k.Run()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.local {
		t.Fatal("rotten local replica still counted as local read")
	}
	if r, _ := c.Node(0).Disk.Counters(); r != b.Size {
		t.Fatalf("rotten replica charged %d bytes, want %d", r, b.Size)
	}
	if r, _ := c.Node(1).Disk.Counters(); r != b.Size {
		t.Fatalf("failover replica read %d bytes, want %d", r, b.Size)
	}
}

func TestReadBlockAllReplicasRottenFails(t *testing.T) {
	k := sim.NewKernel()
	c := testCluster(k, 2)
	fs := New(c, device.MiB)
	f, _ := fs.Create("in", device.MiB, 2)
	fs.SetFaultModel(FaultModel{Rotten: func(uint32, int) bool { return true }})
	r := readBlock(k, fs, 0, f.Blocks[0])
	k.Run()
	if r.err == nil {
		t.Fatal("read of fully-rotten block succeeded")
	}
}

func TestBlockSumsStableAndDistinct(t *testing.T) {
	k := sim.NewKernel()
	fs := New(testCluster(k, 2), 100)
	f, _ := fs.Create("in", 250, 1)
	k2 := sim.NewKernel()
	fs2 := New(testCluster(k2, 2), 100)
	f2, _ := fs2.Create("in", 250, 1)
	for i := range f.Blocks {
		if f.Blocks[i].Sum == 0 {
			t.Fatalf("block %d has zero checksum", i)
		}
		if f.Blocks[i].Sum != f2.Blocks[i].Sum {
			t.Fatalf("block %d checksum not deterministic", i)
		}
	}
	if f.Blocks[0].Sum == f.Blocks[1].Sum {
		t.Fatal("distinct blocks share a checksum")
	}
}

func TestWriteCreatesAndAppends(t *testing.T) {
	k := sim.NewKernel()
	c := testCluster(k, 2)
	fs := New(c, device.MiB)
	w0, w1 := writeBlock(k, fs, 0, 100), writeBlock(k, fs, 1, 200)
	k.Run()
	f, err := fs.Open("out")
	if err != nil || w0.f != f || w1.f != f {
		t.Fatalf("Open(out) = %p, %v; the writes went to %p and %p", f, err, w0.f, w1.f)
	}
	if f.Size != 300 || len(f.Blocks) != 2 {
		t.Fatalf("size=%d blocks=%d", f.Size, len(f.Blocks))
	}
	_, w := c.Node(0).Disk.Counters()
	if w != 100 {
		t.Fatalf("node0 wrote %d", w)
	}
}

func TestSplitsCoverAllBlocksInOrder(t *testing.T) {
	k := sim.NewKernel()
	fs := New(testCluster(k, 4), 10)
	f, _ := fs.Create("in", 95, 4) // 10 blocks
	var seen []int
	for s := range 4 {
		for _, b := range Split(f.Blocks, 4, s) {
			seen = append(seen, b.Index)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d blocks, want 10", len(seen))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("blocks out of order: %v", seen)
		}
	}
}

// Property: splits always partition the file regardless of block count and
// split count, with near-even sizes (max-min ≤ 1 blocks).
func TestSplitsPartitionProperty(t *testing.T) {
	f := func(sizeKB uint16, n uint8) bool {
		k := sim.NewKernel()
		fs := New(testCluster(k, 3), 4<<10)
		size := int64(sizeKB)*1024 + 1
		file, err := fs.Create("f", size, 3)
		if err != nil {
			return false
		}
		splits := int(n%32) + 1
		total := 0
		minLen, maxLen := len(file.Blocks), 0
		for s := range splits {
			l := len(Split(file.Blocks, splits, s))
			total += l
			minLen, maxLen = min(minLen, l), max(maxLen, l)
		}
		if total != len(file.Blocks) {
			return false
		}
		if splits <= len(file.Blocks) && maxLen-minLen > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSplitsShareBlocks pins what Split returns: a window onto the block list
// itself — block i in split i*n/len(blocks), as when each split was appended
// to block by block — nil when empty, and closed at the top, so appending to
// it cannot write into the next split's blocks.
func TestSplitsShareBlocks(t *testing.T) {
	for nb := 0; nb <= 40; nb++ {
		blocks := make([]Block, nb)
		for i := range blocks {
			blocks[i].Index = i
		}
		for n := 1; n <= 45; n++ {
			want := make([][]int, n)
			for i := range blocks {
				want[i*n/nb] = append(want[i*n/nb], i)
			}
			for s := range n {
				split := Split(blocks, n, s)
				if len(split) != len(want[s]) || (len(split) == 0) != (split == nil) || cap(split) != len(split) {
					t.Fatalf("%d blocks in %d splits: split %d has %d blocks (cap %d, nil: %v), want %d", nb, n, s, len(split), cap(split), split == nil, len(want[s]))
				}
				for j := range split {
					if &split[j] != &blocks[want[s][j]] {
						t.Fatalf("%d blocks in %d splits: split %d block %d is not blocks[%d] itself", nb, n, s, j, want[s][j])
					}
				}
			}
		}
	}
	blocks := make([]Block, 10, 16)
	first := Split(blocks, 4, 0)
	if grown := append(first, Block{Index: -1}); &grown[0] == &first[0] || blocks[len(first)].Index != 0 {
		t.Fatal("appending to a split wrote into the next one")
	}
}

// TestOpenLaysOutWrittenFile pins the layout Open gives a file the cluster
// wrote: nodes ascending, each node's bytes in blocks of the block size, the
// last one partial, the writer as the one replica, numbered in that order and
// summed like a created block. The layout is kept until the next write; the
// one after it is a new array, so blocks taken from the old one stay as they
// were. Create's blocks, if the file had any, stay in front.
func TestOpenLaysOutWrittenFile(t *testing.T) {
	type want struct {
		node int
		size int64
	}
	check := func(fs *FS, f *File, prefix int, wants ...want) {
		t.Helper()
		if len(f.Blocks) != prefix+len(wants) {
			t.Fatalf("%d blocks, want %d", len(f.Blocks), prefix+len(wants))
		}
		for i, w := range wants {
			idx := prefix + i
			b := f.Blocks[idx]
			if b.Index != idx || b.Size != w.size || !slices.Equal(b.Replicas, []int{w.node}) || cap(b.Replicas) != 1 ||
				b.Sum != fs.blockSum(f.Name, idx, w.size) {
				t.Fatalf("block %d = %+v, want %d bytes on node %d", idx, b, w.size, w.node)
			}
			if src, ok := fs.PickReplica(b, 3, nil); !ok || src != w.node {
				t.Fatalf("block %d: a remote reader picks %d, %v", idx, src, ok)
			}
		}
	}
	fs := New(testCluster(sim.NewKernel(), 4), 10)
	f, _ := fs.StartWrite(nil, 2, "out", 0)
	fs.FinishWrite(f, 2, 25)
	fs.FinishWrite(f, 0, 7)
	fs.FinishWrite(f, 2, 5)
	fs.FinishWrite(f, 1, 0)
	if f.Size != 37 || len(f.Blocks) != 0 {
		t.Fatalf("before Open: size %d, %d blocks; want 37 and none", f.Size, len(f.Blocks))
	}
	if g, err := fs.Open("out"); g != f || err != nil {
		t.Fatalf("Open(out) = %p, %v; the writes went to %p", g, err, f)
	}
	check(fs, f, 0, want{0, 7}, want{2, 10}, want{2, 10}, want{2, 10})
	held := f.Blocks
	kept := slices.Clone(held)
	if fs.Open("out"); &f.Blocks[0] != &held[0] {
		t.Fatal("a second Open with no write between laid the file out again")
	}
	fs.FinishWrite(f, 1, 12)
	fs.Open("out")
	check(fs, f, 0, want{0, 7}, want{1, 10}, want{1, 2}, want{2, 10}, want{2, 10}, want{2, 10})
	if !reflect.DeepEqual(held, kept) || &f.Blocks[0] == &held[0] {
		t.Fatalf("a write and an Open changed the blocks taken before: %+v", held)
	}

	in, _ := fs.Create("in", 25, 2)
	created := slices.Clone(in.Blocks)
	g, _ := fs.StartWrite(nil, 3, "in", 0)
	fs.FinishWrite(g, 3, 14)
	if fs.Open("in"); g != in || in.Size != 39 || !reflect.DeepEqual(in.Blocks[:3], created) {
		t.Fatalf("writing to a created file: size %d, blocks %+v", in.Size, in.Blocks)
	}
	check(fs, in, 3, want{3, 10}, want{3, 4})
}

// TestFinishWriteAndSplitAllocateNothing: past a file's first write, which
// sizes its per-node byte counts, recording a write allocates nothing, and
// neither does taking a task's split or opening a file whose layout stands.
func TestFinishWriteAndSplitAllocateNothing(t *testing.T) {
	fs := New(testCluster(sim.NewKernel(), 8), 10)
	f, _ := fs.StartWrite(nil, 0, "out", 0)
	fs.FinishWrite(f, 0, 1)
	node := 0
	if allocs := testing.AllocsPerRun(100, func() {
		node = (node + 3) % 8
		fs.FinishWrite(f, node, 64)
	}); allocs != 0 {
		t.Errorf("FinishWrite allocates %v objects, want 0", allocs)
	}
	if _, err := fs.Open("out"); err != nil {
		t.Fatal(err)
	}
	var n int
	if allocs := testing.AllocsPerRun(100, func() {
		fs.Open("out")
		for s := range 7 {
			n += len(Split(f.Blocks, 7, s))
		}
	}); allocs != 0 || n != 101*len(f.Blocks) {
		t.Errorf("opening a laid-out file and taking its splits allocates %v objects, want 0 (%d blocks seen)", allocs, n)
	}
}

// TestCreateBlockCeiling: a file of exactly maxBlocks blocks is counted as
// such (its layout is not built here: 2^22 blocks are some 200 MB), while one
// byte more — or a size whose rounding up would overflow — is a one-line
// error naming the file, its size and its block count, before anything is
// allocated for it.
func TestCreateBlockCeiling(t *testing.T) {
	const bs = 1 << 20
	fs := New(testCluster(sim.NewKernel(), 2), bs)
	if n, err := fs.blocks("in", maxBlocks*bs); n != maxBlocks || err != nil {
		t.Fatalf("%d bytes: %d blocks, %v; want %d", int64(maxBlocks*bs), n, err, maxBlocks)
	}
	for _, tc := range []struct {
		size   int64
		blocks string
	}{
		{maxBlocks*bs + 1, strconv.Itoa(maxBlocks + 1)},
		{math.MaxInt64, strconv.FormatInt(math.MaxInt64/bs+1, 10)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := fs.Create("in", tc.size, 0)
		runtime.ReadMemStats(&after)
		msg := fmt.Sprint(err)
		if f != nil || !strings.Contains(msg, `"in"`) || !strings.Contains(msg, strconv.FormatInt(tc.size, 10)) ||
			!strings.Contains(msg, tc.blocks) || strings.Contains(msg, "\n") {
			t.Fatalf("Create of %d bytes: %v, %v", tc.size, f, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("rejecting %d bytes allocated %d bytes: more than its error", tc.size, grew)
		}
	}
	if _, err := fs.Open("in"); err == nil {
		t.Fatal("a rejected file was created")
	}
}

// TestPickReplicaMatchesReferenceProperty pins PickReplica's outward walk to
// the order it replaces: the first of replicasByDistance that is not bad and
// is local or reachable — over random replica sets, readers (replica holders
// and not), bad sets (nil, empty, holding the reader) and unreachable sets.
func TestPickReplicaMatchesReferenceProperty(t *testing.T) {
	const nodes = 12
	fs := New(testCluster(sim.NewKernel(), nodes), 128*device.MiB)
	f := func(replicaBits, badBits, downBits uint16, readerSeed uint8, nilBad bool) bool {
		reader := int(readerSeed) % nodes
		var b Block
		var bad map[int]bool
		if !nilBad {
			bad = make(map[int]bool)
		}
		for n := 0; n < nodes; n++ {
			if replicaBits&(1<<n) != 0 {
				b.Replicas = append(b.Replicas, n)
			}
			if bad != nil && badBits&(1<<n) != 0 {
				bad[n] = true
			}
		}
		down := func(n int) bool { return downBits&(1<<n) != 0 }
		fs.SetFaultModel(FaultModel{Unreachable: down})
		want, wantOK := -1, false
		for _, r := range replicasByDistance(b, reader) {
			if !bad[r] && (r == reader || !down(r)) {
				want, wantOK = r, true
				break
			}
		}
		got, ok := fs.PickReplica(b, reader, bad)
		return got == want && ok == wantOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestFullReplicationSharesReplicaList: at replication = cluster size every
// block lists [0..n), so the file keeps one list, and picking the local
// replica or summing a block allocates nothing.
func TestFullReplicationSharesReplicaList(t *testing.T) {
	fs := New(testCluster(sim.NewKernel(), 8), 100)
	f, err := fs.Create("in", 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Blocks {
		if len(b.Replicas) != 8 || &b.Replicas[0] != &f.Blocks[0].Replicas[0] {
			t.Fatalf("block %d does not share the full replica list: %v", i, b.Replicas)
		}
		for n, r := range b.Replicas {
			if r != n {
				t.Fatalf("block %d replicas = %v, want 0..7", i, b.Replicas)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for reader := 0; reader < 8; reader++ {
			if src, ok := fs.PickReplica(f.Blocks[reader], reader, nil); !ok || src != reader {
				t.Fatalf("reader %d picked %d, %v", reader, src, ok)
			}
		}
		fs.blockSum("in", 3, 100)
	})
	if allocs != 0 {
		t.Errorf("local picks and a block sum allocate %v objects, want 0", allocs)
	}
}

// TestPartialReplicationSharesReplicaLists: a block's replica list depends
// only on its index modulo the cluster size, so blocks n apart share one list.
func TestPartialReplicationSharesReplicaLists(t *testing.T) {
	fs := New(testCluster(sim.NewKernel(), 5), 100)
	f, err := fs.Create("in", 2300, 3) // 23 blocks
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Blocks {
		if first := f.Blocks[i%5].Replicas; &b.Replicas[0] != &first[0] {
			t.Fatalf("block %d does not share block %d's replica list", i, i%5)
		}
	}
}

// TestCreateReplicasMatchSortReference holds Create's placement — written
// ascending into one array — to the per-block make, fill and sort.Ints it
// replaced, for every replication of clusters of 1 to 9 nodes and enough blocks
// to wrap around each twice; a block's list ends where the next begins, so an
// append to it cannot reach its neighbour, and the block array is sized once.
func TestCreateReplicasMatchSortReference(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for r := 1; r <= n; r++ {
			fs := New(testCluster(sim.NewKernel(), n), 100)
			f, err := fs.Create("in", int64(2*n+3)*100-1, r)
			if err != nil {
				t.Fatal(err)
			}
			if len(f.Blocks) != 2*n+3 || cap(f.Blocks) != len(f.Blocks) {
				t.Fatalf("n=%d r=%d: %d blocks in an array of %d, want %d in %[5]d", n, r, len(f.Blocks), cap(f.Blocks), 2*n+3)
			}
			for idx, b := range f.Blocks {
				want := make([]int, 0, r)
				for k := 0; k < r; k++ {
					want = append(want, (idx+k)%n)
				}
				sort.Ints(want)
				if !slices.Equal(b.Replicas, want) {
					t.Fatalf("n=%d r=%d block %d: replicas = %v, want %v", n, r, idx, b.Replicas, want)
				}
				if r < n && cap(b.Replicas) != r {
					t.Fatalf("n=%d r=%d block %d: replica list has capacity %d: an append would write into block %d's", n, r, idx, cap(b.Replicas), idx+1)
				}
			}
		}
	}
	fs := New(testCluster(sim.NewKernel(), 9), 100)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if _, err := fs.Create(strconv.Itoa(i), 1000*100, 3); err != nil {
			t.Fatal(err)
		}
	})
	// The file, its block array, the replica array and the name; the namespace
	// map's growth is the fraction.
	if allocs > 5 {
		t.Errorf("creating a 1000-block file at replication 3 allocates %v objects, want 4", allocs)
	}
}

// TestReuseMatchesFreshCreate: over random files, Create on a file system
// returns the very table another file system's Create made when the file's
// name, size, effective replication, node count and block size all match —
// also when the two spell full replication differently — and lays the file
// out afresh when any one of them differs; either way the table equals the one
// laid out on an empty list. A write to the file and the Open after it leave
// the first file system's blocks as they were, and the list still hands out
// the table Create returned last.
func TestReuseMatchesFreshCreate(t *testing.T) {
	type file struct {
		name               string
		size, blockSize    int64
		replication, nodes int
	}
	effective := func(f file) int {
		if f.replication <= 0 || f.replication > f.nodes {
			return f.nodes
		}
		return f.replication
	}
	create := func(f file) (*FS, *File) {
		fs := New(testCluster(sim.NewKernel(), f.nodes), f.blockSize)
		g, err := fs.Create(f.name, f.size, f.replication)
		if err != nil {
			t.Fatal(err)
		}
		return fs, g
	}
	sizes := []int64{50, 100, 128}
	check := func(size uint16, bsSeed, repSeed, nodeSeed, change uint8) bool {
		a := file{name: "in", size: 1 + int64(size)%2000, blockSize: sizes[bsSeed%3], nodes: 2 + int(nodeSeed)%5}
		a.replication = int(repSeed)%(a.nodes+3) - 1 // -1 … nodes+1
		b := a
		switch change % 7 {
		case 1:
			b.name = "in2"
		case 2:
			b.size++
		case 3:
			if b.replication = effective(a) - 1; b.replication == 0 {
				b.replication = 2
			}
		case 4:
			b.nodes++
		case 5:
			b.blockSize = sizes[(bsSeed+1)%3]
		case 6: // full replication spelled another way, if a has it
			if effective(a) == a.nodes {
				b.replication = 0
				if a.replication <= 0 {
					b.replication = a.nodes + 1
				}
			}
		}
		reuse := a.name == b.name && a.size == b.size && a.blockSize == b.blockSize && a.nodes == b.nodes &&
			effective(a) == effective(b)

		DropTables()
		fsA, fa := create(a)
		kept := slices.Clone(fa.Blocks)
		fsB, fb := create(b)
		DropTables()
		_, fresh := create(b)
		table := fb.Blocks
		if !reflect.DeepEqual(table, fresh.Blocks) || (&table[0] == &fa.Blocks[0]) != reuse {
			t.Logf("%+v then %+v: shared %v, want %v; equal to a fresh layout %v",
				a, b, &table[0] == &fa.Blocks[0], reuse, reflect.DeepEqual(table, fresh.Blocks))
			return false
		}

		w, _ := fsB.StartWrite(nil, b.nodes-1, b.name, 0)
		fsB.FinishWrite(w, b.nodes-1, 3*b.blockSize/2)
		if g, err := fsB.Open(b.name); err != nil || len(g.Blocks) != len(table)+2 {
			t.Logf("%+v: the reused file's layout after a write: %v, %d blocks", b, err, len(g.Blocks))
			return false
		}
		if g, err := fsA.Open(a.name); err != nil || !reflect.DeepEqual(g.Blocks, kept) || !reflect.DeepEqual(table, fresh.Blocks) {
			t.Logf("%+v then %+v: a write to the second file system's file changed the first's blocks", a, b)
			return false
		}
		_, fc := create(b)
		return &fc.Blocks[0] == &fresh.Blocks[0]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTableListIsBounded: file systems on two goroutines, each on a cluster of
// its own, get the very table for one file, and the list of recent tables
// keeps at most maxTableBlocks blocks, the most recent ones, however many
// files are laid out; a table larger than that is not kept at all. CI runs it
// under -race.
func TestTableListIsBounded(t *testing.T) {
	DropTables()
	create := func(name string, size int64) *File {
		fs := New(testCluster(sim.NewKernel(), 4), 100)
		f, err := fs.Create(name, size, 0)
		if err != nil {
			t.Error(err)
		}
		return f
	}
	var pair [2]*File
	var wg sync.WaitGroup
	for i := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pair[i] = create("in", 1000)
		}()
	}
	wg.Wait()
	if t.Failed() || &pair[0].Blocks[0] != &pair[1].Blocks[0] {
		t.Fatal("two file systems laid one file out twice")
	}
	held := func() (names []string) {
		tables.Lock()
		defer tables.Unlock()
		blocks := 0
		for _, l := range tables.list {
			names = append(names, l.key.name)
			blocks += len(l.blocks) + 1
		}
		if blocks != tables.blocks || blocks > maxTableBlocks {
			t.Fatalf("the list holds %d blocks, counts %d; bound %d", blocks, tables.blocks, maxTableBlocks)
		}
		return names
	}
	// Files of 2^12 blocks: forty are over twice the bound.
	for i := range 40 {
		create(fmt.Sprintf("f%d", i), 100<<12)
		held()
	}
	names := held()
	if len(names) != maxTableBlocks/(1<<12+1) || names[len(names)-1] != "f39" || slices.Contains(names, "in") {
		t.Fatalf("the list holds %v, want the most recent %d files", names, maxTableBlocks/(1<<12+1))
	}
	create("big", 100*maxTableBlocks)
	if got := held(); !slices.Equal(got, names) {
		t.Fatalf("a table of %d blocks changed the list to %v", maxTableBlocks, got)
	}
}
