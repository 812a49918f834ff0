package ssd

import (
	"fmt"
	"math"
)

// The flash translation layer: a slot-mapping FTL (mapping unit =
// Config.MappingUnit, typically 4KB on conventional SSDs and one 2KB page
// on the ULL device) with per-unit log-structured allocation and greedy
// garbage-collection victim selection. Several consecutive slots share
// one physical flash page; the device batches their programs. The FTL is
// pure bookkeeping — it consumes no simulated time itself.
//
// The mapping is a closed form plus overrides. Preconditioning fills the
// first preSlots LPNs page by page in round-robin unit order, a pure
// function of the geometry, so that fill is never materialized: an l2p
// or p2l entry of 0 defers to the closed form, and only the entries an
// overwrite, trim, migration or erase touches are ever written.
// Preconditioning therefore writes O(blocks) state, and the mapping
// arrays need no initialisation beyond the zeroed memory make returns.

const noPPN = int64(-1)

// unmapped is an explicit hole in l2p (trimmed) or p2l (invalid),
// overriding whatever the closed form says. Other entries are 0 (defer
// to the closed form) or target+1.
const unmapped = int32(-1)

// blockState tracks one physical block, in slots.
type blockState struct {
	written   int // slots allocated
	committed int // slots whose program completed
	invalid   int // slots invalidated by overwrites or migration
	pre       int // leading slots whose owner is the preconditioned closed form
}

func (b *blockState) sealed(slotsPerBlock int) bool {
	return b.written == slotsPerBlock && b.committed == b.written
}

// unitState tracks allocation within one flash unit (plane). Host writes
// and GC migrations fill separate active blocks: sharing one would let
// host traffic drain the block GC opened from the reserve, deadlocking
// the reclaim that is supposed to refill the free list.
type unitState struct {
	active     int   // host active block index, -1 if none
	nextSlot   int   // next slot within the host active block
	gcActive   int   // GC active block index, -1 if none
	gcNextSlot int   // next slot within the GC active block
	free       []int // free block indices (erased)
	gcRunning  bool
	eraseCount uint64
}

// FTL is the slot-mapping translation layer shared by both device models.
type FTL struct {
	units         int
	blocksPerUnit int
	slotsPerBlock int
	slotsPerPage  int // mapping slots per physical flash page
	exportedSlots int64

	l2p    []int32      // LPN -> PPN+1; 0 defers to the closed form
	p2l    []int32      // PPN -> owning LPN+1; 0 defers to the closed form
	blocks []blockState // unit*blocksPerUnit + block
	ustate []unitState

	// The preconditioned closed form: LPN page p (slotsPerPage LPNs) is
	// page p/units of unit order[p%units]; pos inverts order.
	preSlots int64
	order    []int
	pos      []int
}

// NewFTL builds an empty (freshly formatted) FTL for the given geometry.
// Mapping entries are int32, so the geometry must have at most MaxInt32
// physical and exported slots.
func NewFTL(cfg Config) *FTL {
	units := cfg.Units()
	spp := cfg.SlotsPerPage()
	f := &FTL{
		units:         units,
		blocksPerUnit: cfg.BlocksPerUnit,
		slotsPerBlock: cfg.PagesPerBlock * spp,
		slotsPerPage:  spp,
		exportedSlots: cfg.ExportedBytes() / int64(cfg.MappingUnitBytes()),
	}
	physical := int64(units) * int64(f.blocksPerUnit) * int64(f.slotsPerBlock)
	if physical > math.MaxInt32 || f.exportedSlots > math.MaxInt32 {
		panic(fmt.Sprintf("ssd: geometry has %d physical and %d exported mapping slots; the FTL maps at most %d",
			physical, f.exportedSlots, math.MaxInt32))
	}
	f.l2p = make([]int32, f.exportedSlots)
	f.p2l = make([]int32, physical)
	f.blocks = make([]blockState, units*cfg.BlocksPerUnit)
	f.ustate = make([]unitState, units)
	for u := range f.ustate {
		f.ustate[u].active = -1
		f.ustate[u].gcActive = -1
		free := make([]int, cfg.BlocksPerUnit)
		for b := range free {
			free[b] = b
		}
		f.ustate[u].free = free
	}
	return f
}

// precondition installs the closed form for the first n LPNs: the state
// n sequential writes through a round-robin allocator visiting order
// would leave in a fresh FTL. LPN page p goes to unit order[p%units] as
// that unit's page p/units, so only per-unit and per-block state is
// written. Host allocation keeps each unit's reserve block, so no unit
// fills more than blocksPerUnit-1 blocks; all units reach that cap in
// the same round and the fill stops there. It returns the number of
// allocation attempts the sequential fill makes, counting the final
// round of failures when the cap stops it.
func (f *FTL) precondition(order []int, n int64) (attempts int) {
	if n <= 0 {
		return 0
	}
	units, spp, spb := int64(f.units), int64(f.slotsPerPage), int64(f.slotsPerBlock)
	pages := (n + spp - 1) / spp
	attempts = int(pages)
	if limit := int64(f.blocksPerUnit-1) * (spb / spp) * units; pages > limit {
		pages, n, attempts = limit, limit*spp, int(limit+units)
	}
	f.preSlots = n
	f.order = order
	f.pos = make([]int, f.units)
	for i, unit := range order {
		f.pos[unit] = i
		if int64(i) >= pages {
			continue
		}
		slots := ((pages-1-int64(i))/units + 1) * spp
		if int64(i) == (pages-1)%units {
			slots -= pages*spp - n // a partial last page
		}
		nblk := int((slots + spb - 1) / spb)
		for b := 0; b < nblk; b++ {
			w := int(min(slots-int64(b)*spb, spb))
			f.blocks[f.blockIndex(unit, b)] = blockState{written: w, committed: w, pre: w}
		}
		u := &f.ustate[unit]
		u.free = u.free[nblk:]
		u.active = nblk - 1
		u.nextSlot = int(slots - int64(nblk-1)*spb)
	}
	return attempts
}

// ExportedPages reports the host-visible capacity in mapping slots.
func (f *FTL) ExportedPages() int64 { return f.exportedSlots }

// SlotsPerPage reports mapping slots per physical flash page.
func (f *FTL) SlotsPerPage() int { return f.slotsPerPage }

// ppn packing: unit * slotsPerBlock * blocksPerUnit + block * slotsPerBlock + slot.

func (f *FTL) pack(unit, block, slot int) int64 {
	return (int64(unit)*int64(f.blocksPerUnit)+int64(block))*int64(f.slotsPerBlock) + int64(slot)
}

// Unpack splits a PPN into unit, block, and slot indices.
func (f *FTL) Unpack(ppn int64) (unit, block, slot int) {
	slot = int(ppn % int64(f.slotsPerBlock))
	rest := ppn / int64(f.slotsPerBlock)
	block = int(rest % int64(f.blocksPerUnit))
	unit = int(rest / int64(f.blocksPerUnit))
	return
}

// UnitOf reports the flash unit holding ppn.
func (f *FTL) UnitOf(ppn int64) int {
	return int(ppn / (int64(f.blocksPerUnit) * int64(f.slotsPerBlock)))
}

// PageOf reports the global physical flash page index of ppn, the unit of
// media reads and programs.
func (f *FTL) PageOf(ppn int64) int64 { return ppn / int64(f.slotsPerPage) }

// Lookup resolves an LPN to its current physical slot.
func (f *FTL) Lookup(lpn int64) (ppn int64, ok bool) {
	if lpn < 0 || lpn >= f.exportedSlots {
		return noPPN, false
	}
	switch v := f.l2p[lpn]; {
	case v > 0:
		return int64(v) - 1, true
	case v == 0 && lpn < f.preSlots:
		spp, unitSlots := int64(f.slotsPerPage), int64(f.blocksPerUnit)*int64(f.slotsPerBlock)
		page, units := lpn/spp, int64(f.units)
		return int64(f.order[page%units])*unitSlots + page/units*spp + lpn%spp, true
	}
	return noPPN, false
}

// owner reports the LPN whose data ppn holds, noPPN if the slot is
// invalid or unwritten. It inverts Lookup.
func (f *FTL) owner(ppn int64) int64 {
	switch v := f.p2l[ppn]; {
	case v > 0:
		return int64(v) - 1
	case v < 0:
		return noPPN
	}
	if ppn%int64(f.slotsPerBlock) >= int64(f.blockOf(ppn).pre) {
		return noPPN
	}
	spp, unitSlots := int64(f.slotsPerPage), int64(f.blocksPerUnit)*int64(f.slotsPerBlock)
	page := ppn % unitSlots / spp // within the unit
	return (page*int64(f.units)+int64(f.pos[ppn/unitSlots]))*spp + ppn%spp
}

// Allocate reserves the next slot in unit's active block for the host
// (gc=false) or GC migration (gc=true) stream. See AllocateRun.
func (f *FTL) Allocate(unit int, gc bool) (ppn int64, ok bool) {
	ppn, n := f.AllocateRun(unit, 1, gc)
	return ppn, n == 1
}

// AllocateRun reserves up to want consecutive slots in unit's active
// block, never crossing a physical-page boundary (the run becomes one
// flash program). A new block is opened from the free list when needed.
// Host allocations keep one erased block in reserve so garbage collection
// can always make forward progress; GC allocations may consume the
// reserve. It returns the first slot and the run length, 0 when the
// stream has no allocatable space.
func (f *FTL) AllocateRun(unit, want int, gc bool) (ppn int64, count int) {
	if want < 1 {
		return noPPN, 0
	}
	u := &f.ustate[unit]
	active, next := &u.active, &u.nextSlot
	reserve := 1
	if gc {
		active, next = &u.gcActive, &u.gcNextSlot
		reserve = 0
	}
	if *active < 0 || *next == f.slotsPerBlock {
		if len(u.free) <= reserve {
			return noPPN, 0
		}
		*active, u.free = u.free[0], u.free[1:]
		*next = 0
	}
	// Clip to the physical page and block boundaries.
	count = want
	if room := f.slotsPerPage - *next%f.slotsPerPage; count > room {
		count = room
	}
	if room := f.slotsPerBlock - *next; count > room {
		count = room
	}
	ppn = f.pack(unit, *active, *next)
	f.blocks[f.blockIndex(unit, *active)].written += count
	*next += count
	return ppn, count
}

func (f *FTL) blockIndex(unit, block int) int {
	return unit*f.blocksPerUnit + block
}

// blockOf returns the state of the block holding ppn.
func (f *FTL) blockOf(ppn int64) *blockState {
	return &f.blocks[ppn/int64(f.slotsPerBlock)]
}

// Commit installs lpn -> ppn after a program completes, invalidating any
// previous location of lpn.
func (f *FTL) Commit(lpn, ppn int64) {
	if old, ok := f.Lookup(lpn); ok {
		f.invalidate(old)
	}
	f.l2p[lpn] = int32(ppn + 1)
	f.p2l[ppn] = int32(lpn + 1)
	f.blockOf(ppn).committed++
}

// CommitDiscard is used when a buffered write was superseded before its
// program completed: the physical slot is immediately invalid.
func (f *FTL) CommitDiscard(ppn int64) {
	f.p2l[ppn] = unmapped
	b := f.blockOf(ppn)
	b.committed++
	b.invalid++
}

func (f *FTL) invalidate(ppn int64) {
	if f.owner(ppn) != noPPN {
		f.p2l[ppn] = unmapped
		f.blockOf(ppn).invalid++
	}
}

// FreeBlocks reports erased blocks remaining in a unit.
func (f *FTL) FreeBlocks(unit int) int { return len(f.ustate[unit].free) }

// GCRunning reports / SetGCRunning sets the per-unit GC latch.
func (f *FTL) GCRunning(unit int) bool        { return f.ustate[unit].gcRunning }
func (f *FTL) SetGCRunning(unit int, on bool) { f.ustate[unit].gcRunning = on }

// Victim selects the sealed block in unit with the most invalid slots and
// returns its valid LPNs (with their PPNs, sorted by PPN) for migration,
// appended to buf[:0] so a caller can reuse one buffer across passes.
// It reports false when no sealed block with reclaimable space exists:
// migrating a fully-valid block frees exactly as much as it consumes.
func (f *FTL) Victim(unit int, buf []MigrationPage) (block int, valid []MigrationPage, ok bool) {
	valid = buf[:0]
	best, bestInvalid := -1, 0
	for b := 0; b < f.blocksPerUnit; b++ {
		// Partially written active blocks are unsealed and skip
		// themselves; a full active block is fair game (allocation will
		// lazily open a fresh block).
		bs := &f.blocks[f.blockIndex(unit, b)]
		if !bs.sealed(f.slotsPerBlock) {
			continue
		}
		if bs.invalid > bestInvalid {
			best, bestInvalid = b, bs.invalid
		}
	}
	if best < 0 {
		return 0, valid, false
	}
	base := f.pack(unit, best, 0)
	for ppn := base; ppn < base+int64(f.slotsPerBlock); ppn++ {
		if lpn := f.owner(ppn); lpn != noPPN {
			valid = append(valid, MigrationPage{LPN: lpn, PPN: ppn})
		}
	}
	return best, valid, true
}

// MigrationPage is one valid slot a GC pass must relocate.
type MigrationPage struct {
	LPN int64
	PPN int64
}

// EraseDone returns block to unit's free list after an erase completes and
// resets its bookkeeping.
func (f *FTL) EraseDone(unit, block int) {
	base := f.pack(unit, block, 0)
	clear(f.p2l[base : base+int64(f.slotsPerBlock)])
	f.blocks[f.blockIndex(unit, block)] = blockState{}
	u := &f.ustate[unit]
	u.free = append(u.free, block)
	u.eraseCount++
}

// EraseCount reports total erases performed on a unit.
func (f *FTL) EraseCount(unit int) uint64 { return f.ustate[unit].eraseCount }

// WearStats summarizes erase-count distribution across units — the
// wear-leveling health indicator.
type WearStats struct {
	Min, Max, Total uint64
}

// Wear reports the erase-count distribution across all units.
func (f *FTL) Wear() WearStats {
	var w WearStats
	for u := range f.ustate {
		c := f.ustate[u].eraseCount
		if u == 0 || c < w.Min {
			w.Min = c
		}
		if c > w.Max {
			w.Max = c
		}
		w.Total += c
	}
	return w
}

// WearReport is one device's media-wear summary: the erase-count
// distribution across flash units plus the program-slot accounting that
// yields write amplification. HostSlots counts mapping slots programmed
// on behalf of host writes; GCSlots counts slots relocated by the
// garbage collector. Preconditioning maps slots without programming the
// media, so it inflates neither side.
type WearReport struct {
	Erases    WearStats
	HostSlots uint64
	GCSlots   uint64
}

// WriteAmp reports media writes per host write: (host + GC slots) /
// host slots. 1.0 until the cleaner has had to move anything; 0 when
// the device has absorbed no host writes at all.
func (w WearReport) WriteAmp() float64 {
	if w.HostSlots == 0 {
		return 0
	}
	return float64(w.HostSlots+w.GCSlots) / float64(w.HostSlots)
}

// StillCurrent reports whether ppn is still the mapping target of lpn —
// a migration must not commit if the host overwrote the slot meanwhile.
func (f *FTL) StillCurrent(lpn, ppn int64) bool {
	cur, ok := f.Lookup(lpn)
	return ok && cur == ppn
}

// Trim unmaps lpn, invalidating its physical slot (NVMe Deallocate).
func (f *FTL) Trim(lpn int64) {
	if old, ok := f.Lookup(lpn); ok {
		f.invalidate(old)
		f.l2p[lpn] = unmapped
	}
}

// TotalInvalid reports the number of invalid slots across a unit,
// a measure of reclaimable space (used by tests and stats).
func (f *FTL) TotalInvalid(unit int) int {
	sum := 0
	for b := 0; b < f.blocksPerUnit; b++ {
		sum += f.blocks[f.blockIndex(unit, b)].invalid
	}
	return sum
}

// Check audits the FTL's invariants and reports the first violation:
//   - l2p and p2l are inverse bijections, across closed form and
//     overrides, and every mapped slot lies below its block's write point;
//   - per block, pre <= committed <= written <= slotsPerBlock, and invalid
//     equals committed minus live slots;
//   - each unit's free list holds distinct unwritten blocks that no
//     stream is filling, and every other block has been written;
//   - host allocation never takes a unit's last free block, so an empty
//     free list means GC has opened the reserve.
//
// It walks every LPN and slot, so it is for tests, not the hot path.
func (f *FTL) Check() error {
	for lpn := int64(0); lpn < f.exportedSlots; lpn++ {
		ppn, ok := f.Lookup(lpn)
		if !ok {
			continue
		}
		if ppn < 0 || ppn >= int64(len(f.p2l)) {
			return fmt.Errorf("ssd: LPN %d maps to PPN %d outside the media", lpn, ppn)
		}
		if got := f.owner(ppn); got != lpn {
			return fmt.Errorf("ssd: LPN %d maps to PPN %d, whose owner is LPN %d", lpn, ppn, got)
		}
	}
	spb := f.slotsPerBlock
	for bi := range f.blocks {
		b := &f.blocks[bi]
		if b.pre > b.committed || b.committed > b.written || b.written > spb {
			return fmt.Errorf("ssd: block %d counters pre=%d committed=%d written=%d exceed their order (slots %d)",
				bi, b.pre, b.committed, b.written, spb)
		}
		live := 0
		base := int64(bi) * int64(spb)
		for slot := 0; slot < spb; slot++ {
			lpn := f.owner(base + int64(slot))
			if lpn == noPPN {
				continue
			}
			if slot >= b.written {
				return fmt.Errorf("ssd: block %d slot %d owned by LPN %d beyond the write point %d", bi, slot, lpn, b.written)
			}
			if cur, ok := f.Lookup(lpn); !ok || cur != base+int64(slot) {
				return fmt.Errorf("ssd: PPN %d owned by LPN %d, which maps to %d (mapped %v)", base+int64(slot), lpn, cur, ok)
			}
			live++
		}
		if b.invalid != b.committed-live {
			return fmt.Errorf("ssd: block %d invalid=%d, want committed %d - live %d", bi, b.invalid, b.committed, live)
		}
	}
	seen := make([]bool, f.blocksPerUnit)
	for u := range f.ustate {
		us := &f.ustate[u]
		for _, s := range []struct{ active, next int }{{us.active, us.nextSlot}, {us.gcActive, us.gcNextSlot}} {
			if s.active >= 0 && s.next < spb && f.blocks[f.blockIndex(u, s.active)].written != s.next {
				return fmt.Errorf("ssd: unit %d active block %d written=%d, want write point %d",
					u, s.active, f.blocks[f.blockIndex(u, s.active)].written, s.next)
			}
		}
		clear(seen)
		for _, b := range us.free {
			switch {
			case b < 0 || b >= f.blocksPerUnit || seen[b]:
				return fmt.Errorf("ssd: unit %d free list %v repeats or overruns block %d", u, us.free, b)
			case f.blocks[f.blockIndex(u, b)].written != 0:
				return fmt.Errorf("ssd: unit %d free block %d has written slots", u, b)
			case b == us.active && us.nextSlot < spb, b == us.gcActive && us.gcNextSlot < spb:
				return fmt.Errorf("ssd: unit %d free block %d is an open active block", u, b)
			}
			seen[b] = true
		}
		for b := 0; b < f.blocksPerUnit; b++ {
			if !seen[b] && f.blocks[f.blockIndex(u, b)].written == 0 {
				return fmt.Errorf("ssd: unit %d block %d is neither free nor written", u, b)
			}
		}
		if len(us.free) == 0 && us.gcActive < 0 {
			return fmt.Errorf("ssd: unit %d free list empty without GC taking the reserve", u)
		}
	}
	return nil
}
