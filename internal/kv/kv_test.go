package kv

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// testHost builds the store's usual substrate: a filesystem + page
// cache over libaio over a geometry-shrunk Z-SSD.
func testHost(seed uint64, journal fs.JournalMode) *core.Graph {
	dev := ssd.ZSSD()
	dev.WaysPerChannel = 2
	dev.BlocksPerUnit = 16
	dev.Seed ^= seed
	return core.Build(core.Topology{
		Root: core.FS{
			Config: fs.Config{CacheBytes: 4 << 20, Journal: journal},
			Child:  core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: dev}},
		},
		Precondition: 0.9,
	})
}

func testStore(seed uint64) (*Store, *core.Graph) {
	g := testHost(seed, fs.OrderedJournal)
	s := New(g, Config{
		MemtableBytes: 64 << 10,
		SSTableBytes:  64 << 10,
		BlockBytes:    8 << 10,
		CacheBytes:    128 << 10,
		WALBytes:      1 << 20,
		L0Tables:      2,
		LevelRatio:    4,
	})
	return s, g
}

func TestPutThenGetGroupCommit(t *testing.T) {
	s, g := testStore(7)
	s.Preload(4096, 512)
	const puts = 64
	done := 0
	for i := 0; i < puts; i++ {
		s.Put(int64(i), 512, func() { done++ })
	}
	g.Engine().Run()
	if done != puts {
		t.Fatalf("completed %d of %d puts", done, puts)
	}
	st := s.Stats()
	if st.WALSyncs == 0 {
		t.Fatal("puts completed without any WAL sync")
	}
	// All puts were issued at t=0: one leader pays, the rest ride a
	// second batch — far fewer syncs than puts is the group commit.
	if st.WALSyncs >= puts/2 {
		t.Fatalf("WALSyncs = %d for %d simultaneous puts; group commit is not batching", st.WALSyncs, puts)
	}
	got := false
	s.Get(5, 512, func() { got = true })
	g.Engine().Run()
	if !got {
		t.Fatal("get did not complete")
	}
	if s.Stats().MemHits == 0 {
		t.Fatal("freshly put key should be served by the memtable")
	}
}

// TestRotationSnapshotSortedRegardlessOfPutOrder is the regression pin
// for the PR 7 bug the mapiter analyzer now catches at compile time:
// sealing the memtable must yield the same sorted key layout no matter
// what order the puts arrived in (or what order Go's randomized map
// walk would have yielded). The flushed L0 table's layout feeds block
// addressing, compaction timing, and WAL sizing, so an order leak here
// diverges fixed-seed runs.
func TestRotationSnapshotSortedRegardlessOfPutOrder(t *testing.T) {
	// 128 puts of 512 B fill MemtableBytes (64 KiB) exactly, sealing all
	// of them into one rotation regardless of arrival order.
	const keys = 128
	orders := make([][]int64, 3)
	for i := range orders {
		orders[i] = make([]int64, keys)
	}
	for k := int64(0); k < keys; k++ {
		orders[0][k] = k           // ascending
		orders[1][keys-1-k] = k    // descending
		orders[2][(k*37)%keys] = k // fixed shuffle (37 coprime to 128)
	}
	var want []int64
	for _, order := range orders {
		s, g := testStore(7)
		for _, k := range order {
			s.Put(k, 512, func() {})
		}
		g.Engine().Run()
		if len(s.levels[0]) == 0 {
			t.Fatal("no L0 table installed; rotation did not flush")
		}
		var got []int64
		for i := len(s.levels[0]) - 1; i >= 0; i-- { // newest-first install
			got = append(got, s.levels[0][i].keys...)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("flushed layout not strictly ascending at %d: %v", i, got)
			}
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("flushed %d keys, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("insertion order %v changed the flushed layout at %d: got %d, want %d",
					order[:4], i, got[i], want[i])
			}
		}
	}
}

func TestFlushCompactionAndCacheLifecycle(t *testing.T) {
	s, g := testStore(11)
	s.Preload(4096, 512)
	// Enough puts to roll the memtable several times: 64KiB / 512B = 128
	// records per table; 1500 distinct keys ≈ 11 flushes, driving L0
	// past its 2-table trigger repeatedly.
	next := int64(0)
	var pump func()
	pump = func() {
		if next >= 1500 {
			return
		}
		s.Put(next%4096, 512, pump)
		next++
	}
	pump()
	g.Engine().Run()
	st := s.Stats()
	if st.Flushes < 5 {
		t.Fatalf("Flushes = %d, want several memtable rotations", st.Flushes)
	}
	if st.Compactions == 0 {
		t.Fatal("L0 never compacted despite exceeding its trigger")
	}
	if st.CompactRead == 0 || st.CompactWritten == 0 {
		t.Fatal("compaction moved no bytes through the host")
	}
	if len(st.LevelBytes) < 2 || st.LevelBytes[1] == 0 {
		t.Fatalf("LevelBytes = %v, want a populated L1", st.LevelBytes)
	}
	// Cold gets now hit SSTables: some block reads, then cache hits on
	// re-reads of the same block.
	for i := 0; i < 64; i++ {
		s.Get(int64(i), 512, func() {})
	}
	g.Engine().Run()
	for i := 0; i < 64; i++ {
		s.Get(int64(i), 512, func() {})
	}
	g.Engine().Run()
	st = s.Stats()
	if st.BlockReads == 0 {
		t.Fatal("cold gets issued no SSTable block reads")
	}
	if st.CacheHits == 0 {
		t.Fatal("warm re-reads missed the block cache")
	}
}

func TestStoreRejectsSerialHost(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New on a pvsync2 host should panic")
		}
	}()
	dev := ssd.ZSSD()
	dev.WaysPerChannel = 2
	dev.BlocksPerUnit = 16
	New(core.Build(core.Topology{Root: core.Stack{Kind: core.KernelSync, Queue: core.Queue{Device: dev}}}), Config{})
}

// kvFingerprint runs one keyed YCSB-style job through the workload
// engines against a fresh store and renders everything measurable.
func kvFingerprint(seed uint64) string {
	s, _ := testStore(seed)
	s.Preload(4096, 512)
	res := workload.RunService(s, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.RandRW, WriteFraction: 0.2, BlockSize: 512,
			Keyspace: workload.Keyspace{Keys: 4096, Dist: workload.ZipfianKeys},
			TotalIOs: 800, WarmupIOs: 80, Seed: seed,
		},
		QueueDepth: 8,
	})
	st := s.Stats()
	return fmt.Sprintf("%s|%s|%d|%d|%+v", res.Read.Summarize(), res.Write.Summarize(), res.IOs, res.Wall, st)
}

func TestServiceRunDeterministic(t *testing.T) {
	a, b := kvFingerprint(3), kvFingerprint(3)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if c := kvFingerprint(4); c == a {
		t.Fatal("different seeds produced identical measurements")
	}
}

func TestServiceWearSurfaces(t *testing.T) {
	s, _ := testStore(5)
	s.Preload(4096, 512)
	res := workload.RunService(s, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.RandWrite, BlockSize: 512,
			Keyspace: workload.Keyspace{Keys: 4096},
			TotalIOs: 600, Seed: 5,
		},
		QueueDepth: 4,
	})
	if len(res.Wear) != 1 {
		t.Fatalf("Wear reports %d devices, want 1", len(res.Wear))
	}
	w := res.Wear[0]
	if w.HostSlots == 0 {
		t.Fatal("no host program slots recorded despite WAL + flush traffic")
	}
	if wa := w.WriteAmp(); wa < 1 {
		t.Fatalf("WriteAmp = %.3f, want >= 1", wa)
	}
}

func TestSyncBarriersPendingPuts(t *testing.T) {
	s, g := testStore(9)
	s.Preload(4096, 512)
	put := false
	synced := false
	s.Put(1, 512, func() { put = true })
	s.Sync(func() {
		if !put {
			panic("kv test: Sync completed before the pending put")
		}
		synced = true
	})
	g.Engine().Run()
	if !synced {
		t.Fatal("Sync never completed")
	}
}

// treeContains reports whether key is visible somewhere in the store:
// active memtable, sealed memtable, or any live table.
func treeContains(s *Store, key int64) bool {
	if _, ok := s.mem[key]; ok {
		return true
	}
	if s.imm != nil {
		if _, ok := s.immSet[key]; ok {
			return true
		}
	}
	for _, lvl := range s.levels {
		for _, tb := range lvl {
			if _, ok := tb.contains(key); ok {
				return true
			}
		}
	}
	return false
}

// checkTreeInvariants walks the live tables: every committed key must
// still be visible, no table may outgrow its slab slot, and no two live
// tables may share one.
func checkTreeInvariants(t *testing.T, s *Store, keys int64) {
	t.Helper()
	for k := int64(0); k < keys; k++ {
		if !treeContains(s, k) {
			t.Fatalf("key %d was committed and then dropped from the tree", k)
		}
	}
	slots := map[int64]bool{}
	for _, lvl := range s.levels {
		for _, tb := range lvl {
			if tb.bytes > s.cfg.SSTableBytes {
				t.Fatalf("table %d holds %d bytes, more than its %d-byte slot", tb.id, tb.bytes, s.cfg.SSTableBytes)
			}
			if slots[tb.slot] {
				t.Fatalf("two live tables share slot %d", tb.slot)
			}
			slots[tb.slot] = true
		}
	}
}

// TestFlushDuringCompactionLosesNothing drives enough pipelined put
// traffic that memtable flushes install fresh L0 tables while an L0->L1
// merge's chunked background I/O is still in flight: the merge's
// install must remove only the tables it snapshotted, never a table a
// concurrent flush added.
func TestFlushDuringCompactionLosesNothing(t *testing.T) {
	s, g := testStore(13)
	const puts = 2000 // distinct keys: ~15 seals over a 2-table L0 trigger
	next := int64(0)
	var pump func()
	pump = func() {
		if next >= puts {
			return
		}
		s.Put(next, 512, pump)
		next++
	}
	for i := 0; i < 8; i++ {
		pump()
	}
	g.Engine().Run()
	st := s.Stats()
	if st.Flushes < 3 || st.Compactions == 0 {
		t.Fatalf("Flushes=%d Compactions=%d: traffic never overlapped flush and compaction", st.Flushes, st.Compactions)
	}
	checkTreeInvariants(t, s, puts)
}

// TestSealedMemtableSplitsAcrossSlots runs a store whose memtable seals
// more bytes than one slab slot holds (the write-stall overage shape,
// forced here with MemtableBytes > SSTableBytes): the flush must split
// into slot-sized tables instead of writing past its slot into a
// neighbor's.
func TestSealedMemtableSplitsAcrossSlots(t *testing.T) {
	g := testHost(21, fs.OrderedJournal)
	s := New(g, Config{
		MemtableBytes: 64 << 10,
		SSTableBytes:  16 << 10, // 32 records per slot: every seal splits in 4
		BlockBytes:    8 << 10,
		WALBytes:      1 << 20,
		L0Tables:      2,
		LevelRatio:    4,
	})
	const puts = 300 // two full 128-record seals plus a partial memtable
	next := int64(0)
	var pump func()
	pump = func() {
		if next >= puts {
			return
		}
		s.Put(next, 512, pump)
		next++
	}
	for i := 0; i < 4; i++ {
		pump()
	}
	g.Engine().Run()
	if st := s.Stats(); st.Flushes == 0 {
		t.Fatal("no flush despite sealing twice")
	}
	checkTreeInvariants(t, s, puts)
}

// TestWALBurstSplitsCommits offers one group-commit batch larger than
// the whole WAL region: the commit must split across flushes (remainder
// leading the next group) instead of writing past the circular region
// into SSTable slab addresses.
func TestWALBurstSplitsCommits(t *testing.T) {
	g := testHost(33, fs.OrderedJournal)
	s := New(g, Config{WALBytes: 16 << 10})
	const puts = 64 // 64 x (512B value + 64B header) = 36KiB > the 16KiB region
	done := 0
	for i := 0; i < puts; i++ {
		s.Put(int64(i), 512, func() { done++ })
	}
	g.Engine().Run()
	if done != puts {
		t.Fatalf("completed %d of %d puts", done, puts)
	}
	if st := s.Stats(); st.WALSyncs < 3 {
		t.Fatalf("WALSyncs = %d; a 36KiB burst over a 16KiB WAL must take >= 3 commits", st.WALSyncs)
	}
}

// TestStoreRejectsMixedValueSizes pins the one-value-size-per-store
// contract: table geometry derives from the pinned size, so a put with
// a different size must panic instead of skewing block offsets.
func TestStoreRejectsMixedValueSizes(t *testing.T) {
	s, _ := testStore(3)
	s.Preload(4096, 512)
	defer func() {
		if recover() == nil {
			t.Fatal("put with a second value size should panic")
		}
	}()
	s.Put(1, 1024, func() {})
}

// TestCompactionInstallKeepsConcurrentFlush pins the flush/compaction
// interleaving deterministically: start an L0->L1 merge, then install a
// fresh L0 table (exactly what a concurrent memtable flush does) while
// the merge's chunked I/O is still in flight. The merge's install must
// remove only the tables it snapshotted — the fresh table holds
// committed keys and must survive.
func TestCompactionInstallKeepsConcurrentFlush(t *testing.T) {
	s, g := testStore(17)
	mk := func(lo, n int64) *sstable {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = lo + int64(i)
		}
		tb := &sstable{
			id: s.nextID, slot: s.allocSlot(), keys: keys,
			bytes: n * 512, vsize: 512,
		}
		s.nextID++
		return tb
	}
	// Three L0 tables: one over testStore's 2-table trigger.
	for i := int64(0); i < 3; i++ {
		s.levels[0] = append([]*sstable{mk(i*100, 100)}, s.levels[0]...)
	}
	s.maybeCompact()
	if !s.compactBusy {
		t.Fatal("compaction did not start")
	}
	// One tick in — long before the merge's reads and writes drain — a
	// flush lands a fresh table at the front of L0.
	fresh := mk(1000, 100)
	g.Engine().After(1, func() {
		s.levels[0] = append([]*sstable{fresh}, s.levels[0]...)
	})
	g.Engine().Run()
	if s.compactBusy {
		t.Fatal("compaction never finished")
	}
	for _, tb := range s.levels[0] {
		if tb == fresh {
			return
		}
	}
	t.Fatal("the table flushed during the merge was dropped by the install")
}
