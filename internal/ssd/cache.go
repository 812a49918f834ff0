package ssd

// DRAM-side bookkeeping: the write-back buffer and the read cache.
// Both are pure state; the device charges DRAM latencies around them.

import (
	"sort"

	"repro/internal/sim"
)

// subUnit is the write-buffer dirty-tracking granularity in bytes: one
// logical sector. Entries cover one FTL mapping slot (4KB on the
// conventional device, one 2KB page on the ULL device).
const subUnit = 512

// bufEntry is the buffered dirty state of one device page. Entries are
// pooled by the WriteBuffer: Release recycles them, Insert reuses them.
type bufEntry struct {
	lpn      int64
	dirty    uint32 // bitmask of dirty sub-units
	bytes    int64  // bytes accounted against buffer capacity
	flushing bool
	flushEv  sim.EventRef
	free     *bufEntry // free-list link while recycled
}

// WriteBuffer tracks dirty mapping slots awaiting flush to flash. Slots
// being programmed stay readable (inflight) until their program lands.
type WriteBuffer struct {
	capacity int64
	used     int64
	pageSize int    // mapping-slot size in bytes
	subBits  uint32 // full dirty mask for one slot
	entries  map[int64]*bufEntry
	inflight map[int64]*bufEntry
	freeEnts *bufEntry   // recycled entries
	scratch  []*bufEntry // reused by Entries
	sorter   entSorter
}

// NewWriteBuffer returns an empty buffer over slots of pageSize bytes.
func NewWriteBuffer(capacity int64, pageSize int) *WriteBuffer {
	bits := pageSize / subUnit
	if bits < 1 {
		bits = 1
	}
	if bits > 32 {
		panic("ssd: mapping slot too large for write-buffer mask")
	}
	return &WriteBuffer{
		capacity: capacity,
		pageSize: pageSize,
		subBits:  uint32(1)<<uint(bits) - 1,
		entries:  make(map[int64]*bufEntry),
		inflight: make(map[int64]*bufEntry),
	}
}

// FullMask is the dirty mask of a completely dirty page.
func (w *WriteBuffer) FullMask() uint32 { return w.subBits }

// MaskFor returns the sub-unit dirty mask for the byte span
// [off, off+n) within a page. Spans are clipped to the page.
func (w *WriteBuffer) MaskFor(off, n int) uint32 {
	if w.subBits == 1 {
		return 1
	}
	if off < 0 {
		off = 0
	}
	end := off + n
	if end > w.pageSize {
		end = w.pageSize
	}
	var m uint32
	for b := off / subUnit; b*subUnit < end; b++ {
		m |= 1 << uint(b)
	}
	return m & w.subBits
}

// Used and Capacity report occupancy in bytes.
func (w *WriteBuffer) Used() int64     { return w.used }
func (w *WriteBuffer) Capacity() int64 { return w.capacity }

// HasSpace reports whether n more bytes fit.
func (w *WriteBuffer) HasSpace(n int64) bool { return w.used+n <= w.capacity }

// Insert merges a dirty span into the buffer and reports the entry and
// whether it was newly created (the caller schedules its flush). If the
// page's current entry is already flushing, a fresh entry replaces it.
// Newly dirty bytes are charged against capacity; the caller must have
// checked HasSpace.
func (w *WriteBuffer) Insert(lpn int64, mask uint32) (e *bufEntry, isNew bool) {
	e = w.entries[lpn]
	if e == nil || e.flushing {
		e = w.getEnt(lpn)
		//ullvet:retained staged in the dirty map until its flush lands; Release puts it back
		w.entries[lpn] = e
		isNew = true
	}
	added := mask &^ e.dirty
	e.dirty |= mask
	n := int64(popcount(added)) * subUnit
	if w.subBits == 1 && added != 0 {
		n = int64(w.pageSize)
	}
	e.bytes += n
	w.used += n
	return e, isNew
}

// Covers reports whether the buffer holds all sub-units in mask for lpn,
// in either the staging map or the in-flight (programming) set.
func (w *WriteBuffer) Covers(lpn int64, mask uint32) bool {
	if e := w.entries[lpn]; e != nil && e.dirty&mask == mask {
		return true
	}
	if e := w.inflight[lpn]; e != nil && e.dirty&mask == mask {
		return true
	}
	return false
}

// Full reports whether the entry covers the whole slot.
func (w *WriteBuffer) Full(e *bufEntry) bool { return e.dirty == w.subBits }

// Detach moves the entry from the staging map to the in-flight set
// (flush start): newer writes create fresh entries, but reads can still
// be served from the copy being programmed. Bytes stay accounted until
// Release.
func (w *WriteBuffer) Detach(e *bufEntry) {
	if w.entries[e.lpn] == e {
		delete(w.entries, e.lpn)
	}
	w.inflight[e.lpn] = e
}

// Release returns an entry's bytes to the capacity pool (flush done) and
// recycles the entry. The caller must hold no other references to it. It
// reports whether e was its slot's newest flush: false when a later
// write to the same slot started flushing while e was in flight, which
// makes e's copy stale.
func (w *WriteBuffer) Release(e *bufEntry) (newest bool) {
	w.used -= e.bytes
	e.bytes = 0
	if newest = w.inflight[e.lpn] == e; newest {
		delete(w.inflight, e.lpn)
	}
	w.putEnt(e)
	return newest
}

// getEnt takes a zeroed entry for lpn from the free list.
//
//ullvet:pool get
func (w *WriteBuffer) getEnt(lpn int64) *bufEntry {
	if f := w.freeEnts; f != nil {
		w.freeEnts = f.free
		*f = bufEntry{lpn: lpn}
		return f
	}
	return &bufEntry{lpn: lpn}
}

// putEnt returns an entry to the free list.
//
//ullvet:pool put
func (w *WriteBuffer) putEnt(e *bufEntry) {
	e.free = w.freeEnts
	w.freeEnts = e
}

// Len reports the number of live entries.
func (w *WriteBuffer) Len() int { return len(w.entries) }

// Entries snapshots the staged (not yet flushing) entries in LPN order
// (deterministic — map iteration order must not leak into simulations),
// for FLUSH command handling. The returned slice is reused by the next
// call; callers must consume it before touching the buffer again.
func (w *WriteBuffer) Entries() []*bufEntry {
	w.scratch = w.scratch[:0]
	//ullvet:sorted snapshot is LPN-sorted by w.sorter below before any caller sees it
	for _, e := range w.entries {
		w.scratch = append(w.scratch, e)
	}
	w.sorter.ents = w.scratch
	sort.Sort(&w.sorter)
	w.sorter.ents = nil
	return w.scratch
}

// entSorter orders an Entries snapshot by LPN; a persistent
// sort.Interface avoids sort.Slice's per-call allocations on the FLUSH
// path.
type entSorter struct{ ents []*bufEntry }

func (s *entSorter) Len() int           { return len(s.ents) }
func (s *entSorter) Less(i, j int) bool { return s.ents[i].lpn < s.ents[j].lpn }
func (s *entSorter) Swap(i, j int)      { s.ents[i], s.ents[j] = s.ents[j], s.ents[i] }

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// ReadCache is a FIFO-evicting page cache keyed by LPN. FIFO (rather than
// strict LRU) keeps the model simple; for the streaming and random
// workloads of the paper the two behave identically.
//
// The lpn -> ring-slot index is an open-addressed linear-probe table
// rather than a Go map: the hit check runs once per device read, and at
// a fixed <=50% load factor the probe sequences stay short enough that
// the lookup is a handful of array reads with no hashing-interface
// overhead.
type ReadCache struct {
	cap  int
	ring []int64
	next int
	n    int
	mask uint64
	keys []int64 // -1 marks an empty cell
	vals []int32 // ring slot of keys[i]
}

// NewReadCache returns a cache holding up to capPages pages. A zero or
// negative capacity yields a disabled cache.
func NewReadCache(capPages int) *ReadCache {
	if capPages <= 0 {
		return &ReadCache{}
	}
	ring := make([]int64, capPages)
	for i := range ring {
		ring[i] = -1
	}
	size := 8
	for size < 4*capPages {
		size <<= 1
	}
	keys := make([]int64, size)
	for i := range keys {
		keys[i] = -1
	}
	return &ReadCache{
		cap:  capPages,
		ring: ring,
		mask: uint64(size - 1),
		keys: keys,
		vals: make([]int32, size),
	}
}

// home is the preferred table cell for lpn.
func (c *ReadCache) home(lpn int64) uint64 {
	h := uint64(lpn) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & c.mask
}

// find returns the table index holding lpn, or -1.
func (c *ReadCache) find(lpn int64) int {
	for i := c.home(lpn); ; i = (i + 1) & c.mask {
		switch c.keys[i] {
		case lpn:
			return int(i)
		case -1:
			return -1
		}
	}
}

// Contains reports whether lpn is cached.
func (c *ReadCache) Contains(lpn int64) bool {
	return c.cap != 0 && c.find(lpn) >= 0
}

// Insert adds lpn, evicting the oldest entry when full.
func (c *ReadCache) Insert(lpn int64) {
	if c.cap == 0 {
		return
	}
	// One probe pass does double duty: duplicate check and insertion
	// cell.
	i := c.home(lpn)
	for c.keys[i] != -1 {
		if c.keys[i] == lpn {
			return
		}
		i = (i + 1) & c.mask
	}
	if old := c.ring[c.next]; old >= 0 {
		// Eviction rearranges cells (backward-shift deletion can vacate
		// or refill cells along lpn's probe chain), so reprobe from home.
		c.remove(old)
		for i = c.home(lpn); c.keys[i] != -1; i = (i + 1) & c.mask {
		}
	}
	c.ring[c.next] = lpn
	c.keys[i] = lpn
	c.vals[i] = int32(c.next)
	c.n++
	c.next = (c.next + 1) % c.cap
}

// Invalidate drops lpn if present (a write makes cached data stale).
func (c *ReadCache) Invalidate(lpn int64) {
	if c.cap == 0 {
		return
	}
	if i := c.find(lpn); i >= 0 {
		c.ring[c.vals[i]] = -1
		c.deleteAt(uint64(i))
	}
}

func (c *ReadCache) remove(lpn int64) {
	if i := c.find(lpn); i >= 0 {
		c.deleteAt(uint64(i))
	}
}

// deleteAt empties cell i with backward-shift deletion, keeping every
// remaining entry reachable from its home cell without tombstones.
func (c *ReadCache) deleteAt(i uint64) {
	c.n--
	for {
		c.keys[i] = -1
		j := i
		for {
			j = (j + 1) & c.mask
			if c.keys[j] == -1 {
				return
			}
			// Shift j's entry up only if its home cell lies cyclically at
			// or before the hole — otherwise it would move ahead of it.
			if (j-c.home(c.keys[j]))&c.mask >= (j-i)&c.mask {
				c.keys[i], c.vals[i] = c.keys[j], c.vals[j]
				i = j
				break
			}
		}
	}
}

// Len reports the number of cached pages.
func (c *ReadCache) Len() int { return c.n }
