package dfs

import (
	"reflect"
	"slices"
	"sort"
	"strconv"
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
	fs := New(testCluster(k, 2), 0)
	if _, err := fs.Create("x", 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("x", 10, 1); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestOpenMissing(t *testing.T) {
	k := sim.NewKernel()
	fs := New(testCluster(k, 2), 0)
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
			if !b.LocalTo(node) {
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
	var local0, local1 bool
	k.Go("r", func(p *sim.Proc) {
		local0, _ = fs.ReadBlock(p, f.Blocks[0].Replicas[0], f.Blocks[0])
		other := (f.Blocks[0].Replicas[0] + 1) % 4
		local1, _ = fs.ReadBlock(p, other, f.Blocks[0])
	})
	k.Run()
	if !local0 {
		t.Fatal("read on replica node was not local")
	}
	if local1 {
		t.Fatal("read on non-replica node claimed local")
	}
}

func TestRemoteReadChargesNetwork(t *testing.T) {
	k := sim.NewKernel()
	c := testCluster(k, 2)
	fs := New(c, device.MiB)
	f, _ := fs.Create("in", device.MiB, 1)
	src := f.Blocks[0].Replicas[0]
	dst := 1 - src
	k.Go("r", func(p *sim.Proc) { fs.ReadBlock(p, dst, f.Blocks[0]) })
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
	got := b.ReplicasByDistance(2)
	if got[0] != 2 || got[1] != 0 || got[2] != 5 {
		t.Fatalf("order from node 2 = %v, want [2 0 5]", got)
	}
	got = b.ReplicasByDistance(4)
	if got[0] != 5 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("order from node 4 = %v, want [5 2 0]", got)
	}
	// Equidistant replicas break ties by lower ID.
	got = Block{Replicas: []int{3, 1}}.ReplicasByDistance(2)
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
	if b.LocalTo(reader) {
		t.Fatal("test setup: reader should be remote")
	}
	near := b.ReplicasByDistance(reader)[0]
	fs.SetFaultModel(FaultModel{Unreachable: func(n int) bool { return n == near }})
	var local bool
	var err error
	k.Go("r", func(p *sim.Proc) { local, err = fs.ReadBlock(p, reader, b) })
	k.Run()
	if err != nil || local {
		t.Fatalf("local=%v err=%v", local, err)
	}
	far := b.ReplicasByDistance(reader)[1]
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
	var local bool
	var err error
	k.Go("r", func(p *sim.Proc) { local, err = fs.ReadBlock(p, 0, b) })
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if local {
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
	var err error
	k.Go("r", func(p *sim.Proc) { _, err = fs.ReadBlock(p, 0, f.Blocks[0]) })
	k.Run()
	if err == nil {
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
	k.Go("w", func(p *sim.Proc) {
		fs.Write(p, 0, "out", 100)
		fs.Write(p, 1, "out", 200)
	})
	k.Run()
	f, err := fs.Open("out")
	if err != nil {
		t.Fatal(err)
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
	splits := Splits(f, 4)
	if len(splits) != 4 {
		t.Fatalf("splits = %d", len(splits))
	}
	var seen []int
	for _, s := range splits {
		for _, b := range s {
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
		splits := Splits(file, int(n%32)+1)
		total := 0
		minLen, maxLen := len(file.Blocks), 0
		for _, s := range splits {
			total += len(s)
			if len(s) < minLen {
				minLen = len(s)
			}
			if len(s) > maxLen {
				maxLen = len(s)
			}
		}
		if total != len(file.Blocks) {
			return false
		}
		if len(splits) <= len(file.Blocks) && maxLen-minLen > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSplitsShareBlocks pins what Splits is made of: windows onto the file's
// own block list — block i in split i*n/len(Blocks), as when each split was
// appended to block by block — costing the one slice of windows, and closed
// at the top, so blocks appended to the file later stay out of them.
func TestSplitsShareBlocks(t *testing.T) {
	k := sim.NewKernel()
	fs := New(testCluster(k, 2), 10)
	for nb := 0; nb <= 40; nb++ {
		f := &File{Blocks: make([]Block, nb)}
		for i := range f.Blocks {
			f.Blocks[i].Index = i
		}
		for n := 1; n <= 45; n++ {
			want := make([][]int, n)
			for i := range f.Blocks {
				want[i*n/nb] = append(want[i*n/nb], i)
			}
			for s, split := range Splits(f, n) {
				if len(split) != len(want[s]) || (len(split) == 0) != (split == nil) {
					t.Fatalf("%d blocks in %d splits: split %d has %d blocks (nil: %v), want %d", nb, n, s, len(split), split == nil, len(want[s]))
				}
				for j := range split {
					if &split[j] != &f.Blocks[want[s][j]] {
						t.Fatalf("%d blocks in %d splits: split %d block %d is not f.Blocks[%d] itself", nb, n, s, j, want[s][j])
					}
				}
			}
		}
	}

	f, _ := fs.Create("in", 95, 2) // 10 blocks, in an array with room to grow
	f.Blocks = append(make([]Block, 0, 16), f.Blocks...)
	var splits [][]Block
	if allocs := testing.AllocsPerRun(10, func() { splits = Splits(f, 4) }); allocs != 1 {
		t.Errorf("Splits allocates %v objects, want 1 (the list of splits)", allocs)
	}
	last := splits[3]
	fs.FinishWrite(f, 1, 7) // lands in f.Blocks[10], just past the last split
	if len(f.Blocks) != 11 || len(last) != 2 || cap(last) != 2 {
		t.Fatalf("after an append: %d blocks, last split len %d cap %d", len(f.Blocks), len(last), cap(last))
	}
	if grown := append(last, Block{Index: -1}); &grown[0] == &last[0] || f.Blocks[10].Index != 10 {
		t.Fatal("appending to a split wrote into the file's block list")
	}
}

// TestReserve holds Reserve to being a hint: the blocks a file ends up with are
// the ones it would have had, field for field; inside the reservation the
// array stays where it is; past it, and at a second reservation, it moves like
// any append, leaving splits taken earlier with what they had and no way into
// the new array; two writers announced before either has finished both fit;
// and reserving nothing, or on a file that Create laid out, changes no block.
func TestReserve(t *testing.T) {
	write := func(fs *FS, from, to int) *File {
		t.Helper()
		f, err := fs.Open("out")
		if err != nil {
			t.Fatal(err)
		}
		for i := from; i < to; i++ {
			fs.FinishWrite(f, i%3, int64(5+i))
		}
		return f
	}
	plainFS := New(testCluster(sim.NewKernel(), 3), 10)
	plainFS.Reserve("out", 0) // the entry alone
	if f, _ := plainFS.Open("out"); f == nil || cap(f.Blocks) != 0 || f.Size != 0 {
		t.Fatalf("Reserve(out, 0) left %+v", f)
	}
	plain := write(plainFS, 0, 48)

	fs := New(testCluster(sim.NewKernel(), 3), 10)
	fs.Reserve("out", 32)
	f := write(fs, 0, 1)
	if len(f.Blocks) != 1 || cap(f.Blocks) != 32 {
		t.Fatalf("first write into a reservation of 32: len %d cap %d", len(f.Blocks), cap(f.Blocks))
	}
	base := &f.Blocks[0]
	write(fs, 1, 32)
	if &f.Blocks[0] != base {
		t.Fatal("the block array moved inside its reservation")
	}
	window := Splits(f, 4)[3]
	held := slices.Clone(window)
	write(fs, 32, 40) // past the reservation: appends
	fs.Reserve("out", 100)
	if cap(f.Blocks)-len(f.Blocks) < 100 {
		t.Fatalf("a second reservation of 100 left room for %d", cap(f.Blocks)-len(f.Blocks))
	}
	base = &f.Blocks[0]
	write(fs, 40, 48)
	if &f.Blocks[0] != base {
		t.Fatal("the block array moved inside its second reservation")
	}
	if !reflect.DeepEqual(window, held) || len(window) != 8 || cap(window) != 8 {
		t.Fatalf("a split taken before the array moved: %d blocks (cap %d), changed: %v", len(window), cap(window), !reflect.DeepEqual(window, held))
	}
	if f.Size != plain.Size || !reflect.DeepEqual(f.Blocks, plain.Blocks) {
		t.Fatalf("reserved writes left\n%+v\nunreserved ones\n%+v", f.Blocks, plain.Blocks)
	}

	fs.Remove("out")
	fs.Reserve("out", 10)
	write(fs, 0, 4)
	fs.Reserve("out", 10) // a second job's stage starts while the first one's writes
	f = write(fs, 4, 5)
	base = &f.Blocks[0]
	if write(fs, 5, 20); &f.Blocks[0] != base || !reflect.DeepEqual(f.Blocks, plain.Blocks[:20]) {
		t.Fatal("two reservations of 10 did not hold 20 blocks in place")
	}

	in, _ := fs.Create("in", 95, 2)
	want := slices.Clone(in.Blocks)
	splits := Splits(in, 4)
	base = &in.Blocks[0]
	fs.Reserve("in", 0)
	if &in.Blocks[0] != base {
		t.Fatal("reserving nothing moved an input file's blocks")
	}
	fs.Reserve("in", 5)
	if in.Size != 95 || !reflect.DeepEqual(in.Blocks, want) || !reflect.DeepEqual(splits, Splits(&File{Blocks: want}, 4)) {
		t.Fatalf("a reservation on an input file changed it: size %d, blocks %+v", in.Size, in.Blocks)
	}
}

func TestRemoveExistsFiles(t *testing.T) {
	k := sim.NewKernel()
	fs := New(testCluster(k, 2), 0)
	if fs.Exists("a") {
		t.Fatal("phantom file")
	}
	if _, err := fs.Create("a", 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("b", 10, 1); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("a") {
		t.Fatal("a missing")
	}
	names := fs.Files()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("files = %v", names)
	}
	fs.Remove("a")
	if fs.Exists("a") {
		t.Fatal("a survived Remove")
	}
	if len(fs.Files()) != 1 {
		t.Fatal("Files out of date")
	}
}

func TestBlockSizeDefault(t *testing.T) {
	k := sim.NewKernel()
	fs := New(testCluster(k, 2), 0)
	if fs.BlockSize() != DefaultBlockSize {
		t.Fatalf("block size = %d", fs.BlockSize())
	}
}

// TestPickReplicaMatchesReferenceProperty pins PickReplica's outward walk to
// the order it replaces: the first of ReplicasByDistance that is not bad and
// is local or reachable — over random replica sets, readers (replica holders
// and not), bad sets (nil, empty, holding the reader) and unreachable sets.
func TestPickReplicaMatchesReferenceProperty(t *testing.T) {
	const nodes = 12
	fs := New(testCluster(sim.NewKernel(), nodes), 0)
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
		for _, r := range b.ReplicasByDistance(reader) {
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
