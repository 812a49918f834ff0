// Package kv is an LSM-tree key-value engine composed on the topology
// graph — the first application tier over the paper's storage stack,
// and the "millions of users" serving scenario the ROADMAP names. It
// reproduces the log-on-log stacking the host-integration literature
// warns about: every put is journaled twice (the store's own WAL, then
// the filesystem journal under it), memtables flush as SSTables written
// in large sequential chunks, and leveled compaction issues background
// reads and writes through the very queues foreground gets depend on —
// the three-layer interference (application log x filesystem journal x
// device GC) that turns microsecond media into millisecond tails.
//
// The Store implements workload.Service, so the closed-loop, open-loop,
// and multi-tenant engines drive it exactly like a raw block host:
// positions are keys, writes are puts (WAL group commit, then memtable),
// reads are gets (memtable, then block cache, then one SSTable block
// read per miss).
package kv

import (
	"sort"

	"repro/internal/core"
	"repro/internal/detutil"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Config parameterizes the store. Zero values take the defaults noted;
// sizes are chosen for the simulator's scaled-down devices.
type Config struct {
	// MemtableBytes triggers rotation: when the active memtable reaches
	// it, the memtable seals and flushes to an L0 SSTable (default 1MiB).
	MemtableBytes int64
	// SSTableBytes is the slab slot one table occupies on the host
	// (default MemtableBytes). Tables are written as large sequential
	// chunked I/O into a slot.
	SSTableBytes int64
	// BlockBytes is the SSTable read unit and block-cache granularity
	// (default 32KiB).
	BlockBytes int
	// CacheBytes sizes the block cache above the page cache (0: none).
	CacheBytes int64
	// WALBytes is the circular write-ahead-log region at the front of
	// the host space (default 8MiB).
	WALBytes int64
	// L0Tables triggers compaction: more than this many L0 tables
	// starts an L0->L1 merge (default 4).
	L0Tables int
	// LevelRatio is the size ratio between adjacent levels; level n
	// overflowing its cap spills one table's range into n+1 (default 8).
	LevelRatio int
	// Costs is the store's CPU cost table (zero: DefaultCosts).
	Costs Costs
}

// Costs are the store's per-op CPU charges, spent on the engine before
// any I/O is issued.
type Costs struct {
	MemtableGet sim.Time // memtable + immutable-table lookup
	MemtablePut sim.Time // skiplist insert after the WAL commit
	TableSeek   sim.Time // per-table membership probe (index + bloom)
	CacheHit    sim.Time // block-cache hit service time
	WALRecord   sim.Time // encode + append one WAL record
}

// DefaultCosts returns a cost table in the spirit of the paper's
// software-overhead shares: sub-microsecond CPU work per op.
func DefaultCosts() Costs {
	return Costs{
		MemtableGet: 300 * sim.Nanosecond,
		MemtablePut: 500 * sim.Nanosecond,
		TableSeek:   150 * sim.Nanosecond,
		CacheHit:    400 * sim.Nanosecond,
		WALRecord:   250 * sim.Nanosecond,
	}
}

// Stats counts the store's activity since creation.
type Stats struct {
	Gets, Puts uint64
	MemHits    uint64 // gets served by the memtables
	CacheHits  uint64 // gets served by the block cache
	BlockReads uint64 // SSTable block reads issued for gets
	WALSyncs   uint64 // group-commit fsyncs
	WALBytes   int64  // bytes appended to the WAL
	BatchedPuts,
	Batches uint64 // group-commit occupancy: puts per WAL sync

	Flushes      uint64 // memtables flushed to L0
	FlushedBytes int64
	Compactions  uint64 // level merges completed
	CompactRead,
	CompactWritten int64 // compaction I/O through the host
	StallBytes int64 // bytes absorbed over threshold while a flush ran

	TableCount  int // live SSTables across all levels
	LevelBytes  []int64
	PendingDebt int64 // bytes of overfull levels awaiting compaction
}

// sstable is one immutable sorted run. Keys are held exactly (the
// simulator's stand-in for a perfect bloom filter + index block).
type sstable struct {
	id    uint64
	slot  int64 // host byte offset of its slab slot
	keys  []int64
	bytes int64
	vsize int // value bytes per key
}

func (t *sstable) min() int64 { return t.keys[0] }
func (t *sstable) max() int64 { return t.keys[len(t.keys)-1] }

// contains does the exact membership probe (sorted-slice search).
func (t *sstable) contains(key int64) (int, bool) {
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= key })
	return i, i < len(t.keys) && t.keys[i] == key
}

// waiter is one queued put riding the current WAL group commit.
type waiter struct {
	key  int64
	size int
	done func()
	span *probe.Span
}

// syncWaiter is one explicit Sync barrier waiting out the in-flight WAL
// commit, with the span it carried in.
type syncWaiter struct {
	done func()
	span *probe.Span
}

// Store is the LSM engine. It satisfies workload.Service.
type Store struct {
	host core.Host
	eng  *sim.Engine
	cfg  Config

	// vsize is the store's value size in bytes, pinned by the first
	// Preload or Put. Table geometry (keys per table, block offsets) is
	// derived from it, so one store serves one value size; a mismatched
	// put panics rather than silently skewing the geometry.
	vsize int

	// memtables: the active map absorbing puts, and at most one sealed
	// immutable table mid-flush.
	mem      map[int64]int // key -> value size
	memBytes int64
	imm      []int64 // sealed, sorted; nil when no flush is running
	immSet   map[int64]int

	// WAL group commit (leader-pays): puts arriving while a sync is in
	// flight queue as the next batch; the completing sync launches it.
	walPos     int64 // append cursor within the circular region
	walBusy    bool
	walBatch   []waiter     // accumulating batch
	walFlight  []waiter     // batch whose write+fsync is in flight
	syncQueue  []syncWaiter // explicit Sync barriers riding the next commit
	walFlushFn func()       // bound once

	levels  [][]*sstable // levels[0] newest-first; levels[1:] disjoint, sorted
	nextID  uint64
	slots   []int64 // free slab slots (host offsets), reused lowest-first
	slabEnd int64   // next never-used slot offset

	flushBusy   bool
	compactBusy bool
	mergeKeys   []int64 // compaction's merged run, reused across merges

	cache *blockCache

	// Observability: put/get spans mark KV phases; flush and compaction
	// emit background trace events. Nil probe = all off.
	pr       *probe.Probe
	flTrack  string
	cmpTrack string
	flStart  sim.Time
	cmpStart sim.Time

	keys  int64 // preloaded keyspace size (Service.Ops)
	stats Stats
}

// New composes a store over host. The host must be concurrent
// (background flush/compaction I/O overlaps foreground gets): building
// on a bare pvsync2 stack panics.
func New(host core.Host, cfg Config) *Store {
	if host.Serial() {
		panic("kv: store needs a concurrent host stack (background compaction overlaps foreground gets)")
	}
	if cfg.MemtableBytes <= 0 {
		cfg.MemtableBytes = 1 << 20
	}
	if cfg.SSTableBytes <= 0 {
		cfg.SSTableBytes = cfg.MemtableBytes
	}
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = 32 << 10
	}
	if cfg.WALBytes <= 0 {
		cfg.WALBytes = 8 << 20
	}
	if cfg.L0Tables <= 0 {
		cfg.L0Tables = 4
	}
	if cfg.LevelRatio <= 0 {
		cfg.LevelRatio = 8
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.WALBytes+cfg.SSTableBytes > host.ExportedBytes() {
		panic("kv: host too small for WAL region plus one SSTable slot")
	}
	s := &Store{
		host:    host,
		eng:     host.Engine(),
		cfg:     cfg,
		mem:     make(map[int64]int),
		levels:  make([][]*sstable, 1),
		slabEnd: cfg.WALBytes,
	}
	s.walFlushFn = s.walFlush
	if cfg.CacheBytes > 0 {
		s.cache = newBlockCache(cfg.CacheBytes, cfg.BlockBytes)
	}
	if s.pr = probe.Get(s.eng); s.pr != nil {
		base := s.pr.Name("kv")
		s.flTrack = base + "/flush"
		s.cmpTrack = base + "/compact"
		s.pr.Gauge("kv.debt", func() float64 { return float64(s.debt()) })
	}
	return s
}

// Stats snapshots the store's counters plus the current tree shape.
func (s *Store) Stats() Stats {
	st := s.stats
	st.TableCount = 0
	st.LevelBytes = make([]int64, len(s.levels))
	for l, tables := range s.levels {
		for _, t := range tables {
			st.LevelBytes[l] += t.bytes
			st.TableCount++
		}
	}
	st.PendingDebt = s.debt()
	return st
}

// debt sums the bytes by which levels exceed their compaction triggers
// — the backlog the compactor owes the tree.
func (s *Store) debt() int64 {
	var d int64
	if extra := len(s.levels[0]) - s.cfg.L0Tables; extra > 0 {
		d += int64(extra) * s.cfg.SSTableBytes
	}
	for l := 1; l < len(s.levels); l++ {
		var b int64
		for _, t := range s.levels[l] {
			b += t.bytes
		}
		if over := b - s.levelCap(l); over > 0 {
			d += over
		}
	}
	return d
}

// levelCap is level l's target size: L1 holds L0Tables tables, each
// deeper level LevelRatio times more.
func (s *Store) levelCap(l int) int64 {
	c := int64(s.cfg.L0Tables) * s.cfg.SSTableBytes
	for i := 1; i < l; i++ {
		c *= int64(s.cfg.LevelRatio)
	}
	return c
}

// --- workload.Service ---

// Engine returns the host's event engine.
func (s *Store) Engine() *sim.Engine { return s.host.Engine() }

// Ops reports the keyspace size: the number of preloaded keys. Drive
// the store with keyed jobs (Spec.Keyspace) sized to match.
func (s *Store) Ops() int64 {
	if s.keys > 0 {
		return s.keys
	}
	return 1
}

// Serial is false: the store pipelines puts, gets, and background I/O.
func (s *Store) Serial() bool { return false }

// Issue dispatches one operation: a put (write) or a get.
func (s *Store) Issue(write bool, key int64, size int, done func()) {
	if write {
		s.Put(key, size, done)
	} else {
		s.Get(key, size, done)
	}
}

// Sync barriers the WAL: done fires once every put issued so far is
// durable (riding the in-flight group commit if one is open).
func (s *Store) Sync(done func()) {
	sp := s.pr.TakeSpan()
	if s.walBusy || len(s.walBatch) > 0 {
		s.syncQueue = append(s.syncQueue, syncWaiter{done: done, span: sp})
		return
	}
	s.pr.SetSpan(sp)
	s.host.Sync(done)
}

// Finalize settles the host's deferred accounting.
func (s *Store) Finalize() { s.host.Finalize() }

// WearStats forwards the host's device-wear report.
func (s *Store) WearStats() []ssd.WearReport {
	if w, ok := s.host.(interface{ WearStats() []ssd.WearReport }); ok {
		return w.WearStats()
	}
	return nil
}

// --- puts: WAL group commit, then memtable ---

// Put makes key durable then visible: the record joins the open WAL
// batch, one leader writes and fsyncs the batch through the filesystem
// (log-on-log: the store's WAL lands in the FS journal's care), and on
// commit every rider inserts into the memtable and completes.
func (s *Store) Put(key int64, size int, done func()) {
	if size <= 0 {
		panic("kv: put needs a positive value size")
	}
	if s.vsize == 0 {
		s.vsize = size
	} else if size != s.vsize {
		panic("kv: one value size per store (table geometry is pinned by the first preload or put)")
	}
	s.stats.Puts++
	s.walBatch = append(s.walBatch, waiter{key: key, size: size, done: done, span: s.pr.TakeSpan()})
	if !s.walBusy {
		// Leader pays: charge the record CPU, then carry the batch.
		s.walBusy = true
		s.eng.After(s.cfg.Costs.WALRecord, s.walFlushFn)
	}
}

// walFlush writes the accumulated batch at the WAL cursor and fsyncs.
// One commit takes at most a WAL region's worth of records; a larger
// burst carries its remainder at the head of the next group commit, so
// the write never runs past the circular region into the SSTable slab.
func (s *Store) walFlush() {
	batch := s.walBatch
	var bytes int64
	n := 0
	for _, w := range batch {
		rec := int64(w.size) + walRecordHeader
		if n > 0 && bytes+rec > s.cfg.WALBytes {
			break
		}
		bytes += rec
		n++
	}
	if bytes > s.cfg.WALBytes {
		panic("kv: one WAL record exceeds the WAL region")
	}
	if n < len(batch) {
		s.walBatch = append([]waiter(nil), batch[n:]...)
	} else {
		s.walBatch = nil
	}
	s.walFlight = batch[:n]
	if s.walPos+bytes > s.cfg.WALBytes {
		s.walPos = 0 // circular region wrap
	}
	pos := s.walPos
	s.walPos += bytes
	s.stats.WALBytes += bytes
	s.host.Submit(true, pos, int(bytes), func() {
		s.host.Sync(s.walCommitted)
	})
}

// walCommitted applies the in-flight batch to the memtable, completes
// its riders, and launches the next batch if one accumulated.
func (s *Store) walCommitted() {
	s.stats.WALSyncs++
	s.stats.Batches++
	s.stats.BatchedPuts += uint64(len(s.walFlight))
	batch := s.walFlight
	s.walFlight = nil
	now := s.eng.Now()
	for _, w := range batch {
		// The wait from issue to group-commit durability is the WAL
		// phase; the remainder (memtable insert) is memtable service.
		w.span.To(probe.PKVWal, now)
		w.span.Tail(probe.PKVMem)
		s.memInsert(w.key, w.size)
	}
	// Completions fire after the insert CPU of the whole batch — the
	// group shares the commit the way it shared the fsync.
	cost := sim.Time(len(batch)) * s.cfg.Costs.MemtablePut
	s.eng.AfterArg(cost, func(arg any) {
		for _, w := range arg.([]waiter) {
			w.done()
		}
	}, batch)
	for _, sync := range s.syncQueue {
		sync.span.To(probe.PKVWal, now)
		s.pr.SetSpan(sync.span)
		s.host.Sync(sync.done)
	}
	s.syncQueue = nil
	if len(s.walBatch) > 0 {
		s.eng.After(s.cfg.Costs.WALRecord, s.walFlushFn)
		return
	}
	s.walBusy = false
	s.maybeRotate()
}

// memInsert adds one committed record to the active memtable and seals
// it when full.
func (s *Store) memInsert(key int64, size int) {
	if old, ok := s.mem[key]; ok {
		s.memBytes -= int64(old)
	}
	s.mem[key] = size
	s.memBytes += int64(size)
	if s.memBytes >= s.cfg.MemtableBytes && s.imm != nil {
		// Rotation must wait for the running flush: the memtable keeps
		// absorbing, and the overage is the write-stall debt.
		s.stats.StallBytes += int64(size)
	}
	s.maybeRotate()
}

// maybeRotate seals a full memtable and starts its flush, if no flush
// is already running. The sealed key slice must not depend on map
// iteration order — it becomes the flushed table's layout, so any
// order leak here diverges fixed-seed runs (the original PR 7 bug, now
// also caught at compile time by the mapiter analyzer).
func (s *Store) maybeRotate() {
	if s.memBytes < s.cfg.MemtableBytes || s.imm != nil {
		return
	}
	s.imm = detutil.SortedKeys(s.mem)
	s.immSet = s.mem
	s.mem = make(map[int64]int)
	s.memBytes = 0
	s.startFlush()
}

// --- gets: memtable, block cache, one table block ---

// Get resolves key: memtable and immutable table first (pure CPU), then
// newest-to-oldest through the levels; the first table containing the
// key serves it from the block cache or with one block read.
func (s *Store) Get(key int64, size int, done func()) {
	s.stats.Gets++
	sp := s.pr.TakeSpan()
	if _, ok := s.mem[key]; ok {
		s.stats.MemHits++
		sp.Tail(probe.PKVMem)
		s.eng.After(s.cfg.Costs.MemtableGet, done)
		return
	}
	if s.imm != nil {
		if _, ok := s.immSet[key]; ok {
			s.stats.MemHits++
			sp.Tail(probe.PKVMem)
			s.eng.After(s.cfg.Costs.MemtableGet, done)
			return
		}
	}
	seek := s.cfg.Costs.MemtableGet
	if t, idx := s.find(key, &seek); t != nil {
		block := (int64(idx) * int64(t.vsize)) / int64(s.cfg.BlockBytes)
		if s.cache != nil && s.cache.get(t.id, block) {
			s.stats.CacheHits++
			sp.Tail(probe.PKVMem)
			s.eng.After(seek+s.cfg.Costs.CacheHit, done)
			return
		}
		s.stats.BlockReads++
		off := t.slot + block*int64(s.cfg.BlockBytes)
		s.eng.AfterArg(seek, func(arg any) {
			// The probe CPU so far is memtable/index service; the block
			// read's device trip is attributed downstream and its
			// delivery absorbs the remainder.
			sp.To(probe.PKVMem, s.eng.Now())
			s.pr.SetSpan(sp)
			s.host.Submit(false, off, s.cfg.BlockBytes, func() {
				if s.cache != nil {
					s.cache.put(t.id, block)
				}
				arg.(func())()
			})
			sp.Tail(probe.PKVRead)
		}, done)
		return
	}
	// Not found: the probes were the whole cost.
	sp.Tail(probe.PKVMem)
	s.eng.After(seek, done)
}

// find locates the newest table containing key, charging one TableSeek
// per probed table into *seek.
func (s *Store) find(key int64, seek *sim.Time) (*sstable, int) {
	for _, t := range s.levels[0] { // L0: overlapping, newest first
		*seek += s.cfg.Costs.TableSeek
		if i, ok := t.contains(key); ok {
			return t, i
		}
	}
	for l := 1; l < len(s.levels); l++ { // disjoint: at most one candidate
		tables := s.levels[l]
		j := sort.Search(len(tables), func(i int) bool { return tables[i].max() >= key })
		if j == len(tables) || tables[j].min() > key {
			continue
		}
		*seek += s.cfg.Costs.TableSeek
		if i, ok := tables[j].contains(key); ok {
			return tables[j], i
		}
	}
	return nil, 0
}
