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
// Each has a fixed id, its index in the buffer's registry, which is what
// the buffer's lpn indexes hold.
type bufEntry struct {
	lpn      int64
	dirty    uint32 // bitmask of dirty sub-units
	bytes    int64  // bytes accounted against buffer capacity
	flushing bool
	flushEv  sim.EventRef
	id       int32     // index in WriteBuffer.ents; survives recycling
	free     *bufEntry // free-list link while recycled
}

// WriteBuffer tracks dirty mapping slots awaiting flush to flash. Slots
// being programmed stay readable (inflight) until their program lands.
//
// Both lpn indexes are sim.Index tables of entry ids rather than Go
// maps: Covers runs on every read slot and prefetch candidate, and
// Insert/Detach/Release on every written slot. The tables grow by
// doubling: live entries are bounded by the capacity in slots plus the
// one oversized write admitted into an empty buffer.
type WriteBuffer struct {
	capacity int64
	used     int64
	pageSize int         // mapping-slot size in bytes
	subBits  uint32      // full dirty mask for one slot
	entries  sim.Index   // lpn -> id of the staged (not yet flushing) entry
	inflight sim.Index   // lpn -> id of the newest entry being programmed
	ents     []*bufEntry // every entry ever made, by id; grows with the pool
	freeEnts *bufEntry   // recycled entries
	scratch  []*bufEntry // reused by Entries
	sorter   entSorter
}

// NewWriteBuffer returns an empty buffer over slots of pageSize bytes.
// Its indexes are allocated at the first write.
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

// HasSpace reports whether a write of n bytes can be admitted: it fits,
// or the buffer is empty. A write larger than the whole buffer could
// never fit, so it is admitted alone once everything before it has
// drained, and overshoots the capacity until its own slots flush.
func (w *WriteBuffer) HasSpace(n int64) bool { return w.used == 0 || w.used+n <= w.capacity }

// Insert merges a dirty span into the buffer and reports the entry and
// whether it was newly created (the caller schedules its flush). If the
// page's current entry is already flushing, a fresh entry replaces it.
// Newly dirty bytes are charged against capacity; the caller must have
// checked HasSpace.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (w *WriteBuffer) Insert(lpn int64, mask uint32) (e *bufEntry, isNew bool) {
	if id, ok := w.entries.Get(lpn); ok {
		e = w.ents[id]
	}
	if e == nil || e.flushing {
		e = w.getEnt(lpn)
		w.entries.Put(lpn, e.id)
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
// in either the staged or the in-flight (programming) entry.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (w *WriteBuffer) Covers(lpn int64, mask uint32) bool {
	if id, ok := w.entries.Get(lpn); ok && w.ents[id].dirty&mask == mask {
		return true
	}
	if id, ok := w.inflight.Get(lpn); ok && w.ents[id].dirty&mask == mask {
		return true
	}
	return false
}

// Full reports whether the entry covers the whole slot.
func (w *WriteBuffer) Full(e *bufEntry) bool { return e.dirty == w.subBits }

// Detach moves the entry from the staged index to the in-flight one
// (flush start): newer writes create fresh entries, but reads can still
// be served from the copy being programmed. Bytes stay accounted until
// Release.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (w *WriteBuffer) Detach(e *bufEntry) {
	if i, ok := w.entries.Slot(e.lpn); ok && w.entries.Val(i) == e.id {
		w.entries.DeleteAt(i)
	}
	w.inflight.Put(e.lpn, e.id)
}

// Release returns an entry's bytes to the capacity pool (flush done) and
// recycles the entry. The caller must hold no other references to it. It
// reports whether e was its slot's newest flush: false when a later
// write to the same slot started flushing while e was in flight, which
// makes e's copy stale.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (w *WriteBuffer) Release(e *bufEntry) (newest bool) {
	w.used -= e.bytes
	e.bytes = 0
	if i, ok := w.inflight.Slot(e.lpn); ok && w.inflight.Val(i) == e.id {
		newest = true
		w.inflight.DeleteAt(i)
	}
	w.putEnt(e)
	return newest
}

// getEnt takes a zeroed entry for lpn from the free list, or makes and
// registers a new one.
//
//ullvet:pool get
func (w *WriteBuffer) getEnt(lpn int64) *bufEntry {
	if f := w.freeEnts; f != nil {
		w.freeEnts = f.free
		*f = bufEntry{lpn: lpn, id: f.id}
		return f
	}
	e := &bufEntry{lpn: lpn, id: int32(len(w.ents))}
	w.ents = append(w.ents, e)
	return e
}

// putEnt returns an entry to the free list.
//
//ullvet:pool put
func (w *WriteBuffer) putEnt(e *bufEntry) {
	e.free = w.freeEnts
	w.freeEnts = e
}

// Len reports the number of staged entries.
func (w *WriteBuffer) Len() int { return w.entries.Len() }

// Entries snapshots the staged (not yet flushing) entries in LPN order
// (deterministic — the index's cell order must not leak into
// simulations), for FLUSH command handling. The returned slice is
// reused by the next call; callers must consume it before touching the
// buffer again.
func (w *WriteBuffer) Entries() []*bufEntry {
	w.scratch = w.scratch[:0]
	for i := 0; i < w.entries.Cap(); i++ {
		if _, id, ok := w.entries.At(i); ok {
			w.scratch = append(w.scratch, w.ents[id])
		}
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
// The lpn -> ring-slot index is a sim.Index rather than a Go map: the
// hit check runs once per device read, and at a fixed <=25% load factor
// the lookup is a handful of array reads with no hashing-interface
// overhead.
type ReadCache struct {
	cap  int
	ring []int64
	next int
	idx  sim.Index // lpn -> ring slot
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
	return &ReadCache{cap: capPages, ring: ring, idx: sim.NewIndex(size)}
}

// Contains reports whether lpn is cached.
func (c *ReadCache) Contains(lpn int64) bool {
	if c.cap == 0 {
		return false
	}
	_, ok := c.idx.Slot(lpn)
	return ok
}

// Insert adds lpn, evicting the oldest entry when full.
func (c *ReadCache) Insert(lpn int64) {
	if c.cap == 0 {
		return
	}
	// One probe pass does double duty: duplicate check and insertion
	// cell.
	i, ok := c.idx.Slot(lpn)
	if ok {
		return
	}
	if old := c.ring[c.next]; old >= 0 {
		// Eviction rearranges cells (backward-shift deletion can vacate
		// or refill cells along lpn's probe chain), so reprobe from home.
		c.idx.Remove(old)
		i, _ = c.idx.Slot(lpn)
	}
	c.ring[c.next] = lpn
	c.idx.PutAt(i, lpn, int32(c.next))
	c.next = (c.next + 1) % c.cap
}

// Invalidate drops lpn if present (a write makes cached data stale).
func (c *ReadCache) Invalidate(lpn int64) {
	if c.cap == 0 {
		return
	}
	if i, ok := c.idx.Slot(lpn); ok {
		c.ring[c.idx.Val(i)] = -1
		c.idx.DeleteAt(i)
	}
}

// Len reports the number of cached pages.
func (c *ReadCache) Len() int { return c.idx.Len() }
