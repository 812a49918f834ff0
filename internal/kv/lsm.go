// Flush and leveled compaction: the background I/O half of the store.
// Both walk the host one chunk at a time — large sequential I/O, the
// way real engines write SSTables — so their traffic shares queues,
// page cache, and device with foreground gets instead of completing
// atomically. That contention is the point of the model.
package kv

import (
	"slices"
	"sort"
)

// ioChunk is the background I/O unit: flushes and compactions move
// SSTable bytes in sequential chunks of this size.
const ioChunk = 128 << 10

// walRecordHeader is the per-record WAL framing overhead in bytes.
const walRecordHeader = 64

// --- slab allocation ---

// allocSlot takes the lowest free SSTable slot, growing the slab area
// into fresh host space when the free list is empty.
func (s *Store) allocSlot() int64 {
	if n := len(s.slots); n > 0 {
		off := s.slots[0]
		s.slots = s.slots[1:]
		return off
	}
	off := s.slabEnd
	s.slabEnd += s.cfg.SSTableBytes
	if s.slabEnd > s.host.ExportedBytes() {
		panic("kv: sstable slab area exhausted (host too small for the working set)")
	}
	return off
}

// freeSlot returns a slot to the free list, kept sorted so reuse is
// deterministic and low-addressed.
func (s *Store) freeSlot(off int64) {
	i := sort.Search(len(s.slots), func(i int) bool { return s.slots[i] >= off })
	s.slots = append(s.slots, 0)
	copy(s.slots[i+1:], s.slots[i:])
	s.slots[i] = off
}

// --- memtable flush ---

// startFlush writes the sealed memtable into fresh L0 tables: chunked
// sequential writes, one durability barrier shared across the tables,
// then the install. A memtable that absorbed write-stall overage seals
// more bytes than one slab slot holds, so the seal splits into as many
// SSTableBytes-sized tables as it needs — every table fits its slot.
func (s *Store) startFlush() {
	s.flushBusy = true
	s.flStart = s.eng.Now()
	perTable := int(s.cfg.SSTableBytes / int64(s.vsize))
	if perTable < 1 {
		perTable = 1
	}
	var tables []*sstable
	for keys := s.imm; len(keys) > 0; {
		n := len(keys)
		if n > perTable {
			n = perTable
		}
		t := &sstable{
			id:    s.nextID,
			slot:  s.allocSlot(),
			keys:  keys[:n:n],
			bytes: int64(n) * int64(s.vsize),
			vsize: s.vsize,
		}
		s.nextID++
		tables = append(tables, t)
		keys = keys[n:]
	}
	s.flushWrite(tables, 0, func() {
		s.pr.Emit(s.flTrack, "flush", s.flStart, s.eng.Now()-s.flStart)
		s.stats.Flushes++
		for _, t := range tables {
			s.stats.FlushedBytes += t.bytes
		}
		s.levels[0] = append(append([]*sstable{}, tables...), s.levels[0]...) // newest first
		s.imm = nil
		s.immSet = nil
		s.flushBusy = false
		// A memtable that filled during the flush rotates now; then the
		// tree gets a chance to pay down compaction debt.
		s.maybeRotate()
		s.maybeCompact()
	})
}

// flushWrite streams each sealed table in turn — one chunk in flight at
// a time, so background writes queue behind (and ahead of) foreground
// I/O — sharing one durability barrier across the whole flush.
func (s *Store) flushWrite(tables []*sstable, i int, installed func()) {
	if i >= len(tables) {
		s.host.Sync(installed)
		return
	}
	s.writeTableNoSync(tables[i], 0, func() { s.flushWrite(tables, i+1, installed) })
}

// readTables streams every input table back in (compaction's read half:
// sequential chunked reads), then calls read.
func (s *Store) readTables(tables []*sstable, ti int, off int64, read func()) {
	if ti >= len(tables) {
		read()
		return
	}
	t := tables[ti]
	if off >= t.bytes {
		s.readTables(tables, ti+1, 0, read)
		return
	}
	n := t.bytes - off
	if n > ioChunk {
		n = ioChunk
	}
	s.stats.CompactRead += n
	s.host.Submit(false, t.slot+off, int(n), func() {
		s.readTables(tables, ti, off+n, read)
	})
}

// --- leveled compaction ---

// maybeCompact starts the highest-priority merge if the compactor is
// idle: L0 overflow first, then the shallowest overfull level.
func (s *Store) maybeCompact() {
	if s.compactBusy {
		return
	}
	if len(s.levels[0]) > s.cfg.L0Tables {
		s.compactLevel(0)
		return
	}
	for l := 1; l < len(s.levels); l++ {
		var b int64
		for _, t := range s.levels[l] {
			b += t.bytes
		}
		if b > s.levelCap(l) {
			s.compactLevel(l)
			return
		}
	}
}

// compactLevel merges level l's spill set with the overlapping tables
// one level down: read every input, write merged outputs, barrier,
// install. Foreground gets keep resolving against the old tables until
// the install — the debt window the ext-compaction experiment measures.
func (s *Store) compactLevel(l int) {
	s.compactBusy = true
	s.cmpStart = s.eng.Now()
	var up []*sstable
	if l == 0 {
		up = append(up, s.levels[0]...) // all of L0: ranges overlap
	} else {
		// One table spills: the lowest-keyed, so round-robin pressure
		// walks the keyspace deterministically.
		up = append(up, s.levels[l][0])
	}
	lo, hi := up[0].min(), up[0].max()
	for _, t := range up[1:] {
		if t.min() < lo {
			lo = t.min()
		}
		if t.max() > hi {
			hi = t.max()
		}
	}
	if len(s.levels) == l+1 {
		s.levels = append(s.levels, nil)
	}
	var down []*sstable
	for _, t := range s.levels[l+1] {
		if t.max() >= lo && t.min() <= hi {
			down = append(down, t)
		}
	}
	inputs := append(append([]*sstable{}, up...), down...)
	s.readTables(inputs, 0, 0, func() {
		s.mergeInstall(l, up, down, inputs)
	})
}

// mergeInstall merges the inputs' keys (newest wins; here values are
// sizes, so dedup suffices), writes the merged run as fresh tables one
// level down, and installs them atomically after a barrier.
func (s *Store) mergeInstall(l int, up, down, inputs []*sstable) {
	vsize := up[0].vsize
	s.mergeKeys = unionKeys(s.mergeKeys[:0], inputs)
	perTable := int(s.cfg.SSTableBytes / int64(vsize))
	if perTable < 1 {
		perTable = 1
	}
	// The output tables share one backing array, cut from the merged run.
	var outs []*sstable
	for keys := slices.Clone(s.mergeKeys); len(keys) > 0; {
		n := min(len(keys), perTable)
		t := &sstable{
			id:    s.nextID,
			slot:  s.allocSlot(),
			keys:  keys[:n:n],
			bytes: int64(n) * int64(vsize),
			vsize: vsize,
		}
		s.nextID++
		outs = append(outs, t)
		keys = keys[n:]
	}
	s.writeOuts(outs, 0, func() {
		s.pr.Emit(s.cmpTrack, "compact", s.cmpStart, s.eng.Now()-s.cmpStart)
		// Remove exactly the snapshotted up tables, by identity: a
		// memtable flush can install new L0 tables while this merge's
		// reads and writes are in flight, and those must survive the
		// install (they are newer than the merged run, and L0 resolves
		// newest-first, so correctness holds either way). The deadUp and
		// dead sets are membership-only: written and probed from slice
		// iterations but never ranged, so map iteration order cannot
		// leak into the install (mapiter-audited).
		deadUp := map[*sstable]bool{}
		for _, t := range up {
			deadUp[t] = true
		}
		keepUp := s.levels[l][:0]
		for _, t := range s.levels[l] {
			if !deadUp[t] {
				keepUp = append(keepUp, t)
			}
		}
		s.levels[l] = keepUp
		keep := s.levels[l+1][:0]
		dead := map[*sstable]bool{}
		for _, t := range down {
			dead[t] = true
		}
		for _, t := range s.levels[l+1] {
			if !dead[t] {
				keep = append(keep, t)
			}
		}
		s.levels[l+1] = append(keep, outs...)
		sort.Slice(s.levels[l+1], func(i, j int) bool {
			return s.levels[l+1][i].min() < s.levels[l+1][j].min()
		})
		for _, t := range inputs {
			s.freeSlot(t.slot)
		}
		s.stats.Compactions++
		s.compactBusy = false
		s.maybeCompact()
	})
}

// unionKeys appends the union of the tables' keys to dst, ascending and
// without duplicates, and returns it.
func unionKeys(dst []int64, tables []*sstable) []int64 {
	for _, t := range tables {
		dst = append(dst, t.keys...)
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// writeOuts streams each output table in turn, sharing one final
// barrier across the whole merge.
func (s *Store) writeOuts(outs []*sstable, i int, installed func()) {
	if i >= len(outs) {
		s.host.Sync(installed)
		return
	}
	t := outs[i]
	s.stats.CompactWritten += t.bytes
	s.writeTableNoSync(t, 0, func() { s.writeOuts(outs, i+1, installed) })
}

// writeTableNoSync is writeTable without the trailing barrier (the
// caller owns it).
func (s *Store) writeTableNoSync(t *sstable, off int64, next func()) {
	if off >= t.bytes {
		next()
		return
	}
	n := t.bytes - off
	if n > ioChunk {
		n = ioChunk
	}
	s.host.Submit(true, t.slot+off, int(n), func() {
		s.writeTableNoSync(t, off+n, next)
	})
}

// --- preload ---

// Preload installs keys [0, keys) with valueBytes values directly into
// the deeper levels — table metadata only, no simulated I/O — so a run
// starts against a settled tree the way experiments precondition a
// device. Levels fill shallow-to-deep within their caps; the deepest
// level takes the remainder.
func (s *Store) Preload(keys int64, valueBytes int) {
	if keys <= 0 || valueBytes <= 0 {
		panic("kv: Preload needs positive keys and value size")
	}
	if s.keys > 0 || s.stats.Puts > 0 {
		panic("kv: Preload must run once, before any traffic")
	}
	s.keys = keys
	s.vsize = valueBytes // pins the store's value size (see Put)
	perTable := int64(int(s.cfg.SSTableBytes / int64(valueBytes)))
	if perTable < 1 {
		perTable = 1
	}
	total := (keys + perTable - 1) / perTable // tables needed
	// How many levels? Fill caps L1, L2, ... until the rest fits.
	capTables := func(l int) int64 { return s.levelCap(l) / s.cfg.SSTableBytes }
	var counts []int64
	rest := total
	for l := 1; rest > 0; l++ {
		c := capTables(l)
		if c >= rest {
			c = rest
		}
		counts = append(counts, c)
		rest -= c
	}
	// Deal tables to levels in key order, handing each to the level with
	// the most remaining demand: deterministic, keeps every level's run
	// disjoint and sorted, and spreads each level across the keyspace.
	next := int64(0)
	for ti := int64(0); ti < total; ti++ {
		n := perTable
		if next+n > keys {
			n = keys - next
		}
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = next + int64(i)
		}
		next += n
		// pick the level: largest remaining count
		best := 0
		for i := range counts {
			if counts[i] > counts[best] {
				best = i
			}
		}
		counts[best]--
		t := &sstable{
			id:    s.nextID,
			slot:  s.allocSlot(),
			keys:  ks,
			bytes: n * int64(valueBytes),
			vsize: valueBytes,
		}
		s.nextID++
		for len(s.levels) < best+2 {
			s.levels = append(s.levels, nil)
		}
		s.levels[best+1] = append(s.levels[best+1], t)
	}
}
