package ssd

// Two structures share one open-addressed index: the read cache's
// lpn -> ring-slot table and the sparse form of each FTL mapping
// direction. Both key on mapping-slot numbers, which the FTL bounds to
// [0, MaxInt32), so a cell is two int32s.

// probeTable is a fixed-size open-addressed linear-probe table. It never
// grows: its owner sizes it once and keeps the load at or below one half,
// where probe sequences stay a handful of adjacent cells — cheaper than a
// Go map, with no hashing interface and no per-entry allocation. Deletion
// shifts entries back rather than leaving tombstones.
type probeTable struct {
	cells []probeCell
	mask  uint64
	n     int // occupied cells
}

// probeCell holds key+1, so the zeroed memory make returns is an empty
// table.
type probeCell struct {
	key int32 // key+1; 0 marks an empty cell
	val int32
}

// newProbeTable returns an empty table of size cells, a power of two.
func newProbeTable(size int) probeTable {
	return probeTable{cells: make([]probeCell, size), mask: uint64(size - 1)}
}

// home is the preferred cell for key.
func (t *probeTable) home(key int64) uint64 {
	h := uint64(key) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & t.mask
}

// slot returns the cell holding key, or the empty cell ending its probe
// sequence (where putAt would insert it) and false.
func (t *probeTable) slot(key int64) (i uint64, found bool) {
	k := int32(key + 1)
	for i = t.home(key); ; i = (i + 1) & t.mask {
		switch t.cells[i].key {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// putAt fills the empty cell i, which slot returned for key.
func (t *probeTable) putAt(i uint64, key int64, val int32) {
	t.cells[i] = probeCell{key: int32(key + 1), val: val}
	t.n++
}

// remove deletes key if present.
func (t *probeTable) remove(key int64) {
	if i, ok := t.slot(key); ok {
		t.deleteAt(i)
	}
}

// deleteAt empties cell i with backward-shift deletion, keeping every
// remaining entry reachable from its home cell without tombstones.
func (t *probeTable) deleteAt(i uint64) {
	t.n--
	for {
		t.cells[i] = probeCell{}
		j := i
		for {
			j = (j + 1) & t.mask
			k := t.cells[j].key
			if k == 0 {
				return
			}
			// Shift j's entry up only if its home cell lies cyclically at
			// or before the hole — otherwise it would move ahead of it.
			if (j-t.home(int64(k)-1))&t.mask >= (j-i)&t.mask {
				t.cells[i] = t.cells[j]
				i = j
				break
			}
		}
	}
}

// mapDir is one direction of the FTL mapping (l2p or p2l): an int32 per
// index of a fixed domain, 0 unless stored. Storage follows what a run
// writes. A direction holds nothing until its first store, then an
// override table of about 1/32 of the domain, and, once that table is
// half full, the flat array. A flat direction stays flat.
type mapDir struct {
	flat  []int32    // the whole domain once promoted; nil before
	table probeTable // the overrides while sparse
	n     int64      // domain size
}

// sparseCells sizes a domain's override table: the power of two at or
// above n/32 (at least 16). The table promotes at half load, so a
// direction turns flat once 1/64 to 1/32 of its domain is overridden,
// and a sparse direction holds under 1/8 of the flat array's bytes.
func sparseCells(n int64) int {
	size := 16
	for int64(size) < n/32 {
		size <<= 1
	}
	return size
}

// get returns entry i.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (m *mapDir) get(i int64) int32 {
	if m.flat != nil {
		return m.flat[i]
	}
	return m.getSparse(i)
}

// getSparse returns entry i from the override table. It stays out of
// line so that get inlines into its callers as the flat array read plus
// one branch.
//
//go:noinline
func (m *mapDir) getSparse(i int64) int32 {
	if m.table.n == 0 {
		return 0
	}
	if c, ok := m.table.slot(i); ok {
		return m.table.cells[c].val
	}
	return 0
}

// set stores entry i.
func (m *mapDir) set(i int64, v int32) {
	if m.flat != nil {
		m.flat[i] = v
		return
	}
	m.setSparse(i, v)
}

// setSparse stores entry i in the override table, allocating the table
// at the first override and promoting to the flat array at half load.
func (m *mapDir) setSparse(i int64, v int32) {
	if m.table.cells == nil {
		m.table = newProbeTable(sparseCells(m.n))
	}
	c, ok := m.table.slot(i)
	switch {
	case ok:
		m.table.cells[c].val = v
	case 2*(m.table.n+1) > len(m.table.cells):
		m.promote()
		m.flat[i] = v
	default:
		m.table.putAt(c, i, v)
	}
}

// promote moves the overrides into the flat array and drops the table.
func (m *mapDir) promote() {
	m.flat = make([]int32, m.n)
	for _, c := range m.table.cells {
		if c.key != 0 {
			m.flat[c.key-1] = c.val
		}
	}
	m.table = probeTable{}
}

// clearRange resets entries [lo, hi) to 0.
func (m *mapDir) clearRange(lo, hi int64) {
	if m.flat != nil {
		clear(m.flat[lo:hi])
		return
	}
	for i := lo; i < hi && m.table.n > 0; i++ {
		m.table.remove(i)
	}
}
