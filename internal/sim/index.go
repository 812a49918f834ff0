package sim

// Index is an open-addressed linear-probe table from int32-range keys to
// int32 values: the per-I/O index behind the device read cache, the
// device write buffer, the sparse form of each FTL mapping direction and
// the FS page cache. Keys are slot or page numbers that their owners
// bound to [0, MaxInt32), so a cell is two int32s. Probe sequences stay a
// handful of adjacent cells while the load is at or below one half —
// cheaper than a Go map, with no hashing interface and no per-entry
// allocation. Deletion shifts entries back rather than leaving
// tombstones.
//
// The zero Index is empty and holds no storage. An owner either sizes
// the table once (NewIndex) and keeps its load at or below one half, or
// inserts through Put, which doubles the table whenever an insert would
// pass half load, allocating it at the first insert.
type Index struct {
	cells []indexCell
	mask  uint64
	n     int // occupied cells
}

// indexCell holds key+1, so the zeroed memory make returns is an empty
// table.
type indexCell struct {
	key int32 // key+1; 0 marks an empty cell
	val int32
}

// minIndexCells is the size grow gives a table with no storage.
const minIndexCells = 16

// NewIndex returns an empty table of size cells, a power of two.
func NewIndex(size int) Index {
	return Index{cells: make([]indexCell, size), mask: uint64(size - 1)}
}

// Len reports the number of keys held.
func (t *Index) Len() int { return t.n }

// Cap reports the number of cells.
func (t *Index) Cap() int { return len(t.cells) }

// Crowded reports whether one more insert would take the table past
// half load (always true for a table with no storage).
func (t *Index) Crowded() bool { return 2*(t.n+1) > len(t.cells) }

// home is the preferred cell for key.
func (t *Index) home(key int64) uint64 {
	h := uint64(key) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & t.mask
}

// Slot returns the cell holding key, or the empty cell ending its probe
// sequence (where PutAt would insert it) and false. The table must have
// storage; Get, Put and Remove also accept one without.
func (t *Index) Slot(key int64) (i uint64, found bool) {
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

// Get returns key's value.
func (t *Index) Get(key int64) (val int32, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	if i, ok := t.Slot(key); ok {
		return t.cells[i].val, true
	}
	return 0, false
}

// Val returns the value in cell i, which Slot found.
func (t *Index) Val(i uint64) int32 { return t.cells[i].val }

// SetVal replaces the value in cell i, which Slot found.
func (t *Index) SetVal(i uint64, val int32) { t.cells[i].val = val }

// PutAt fills the empty cell i, which Slot returned for key. It never
// grows the table; the owner keeps the load in bounds.
func (t *Index) PutAt(i uint64, key int64, val int32) {
	t.cells[i] = indexCell{key: int32(key + 1), val: val}
	t.n++
}

// Put maps key to val, doubling the table first when inserting key
// would take it past half load.
func (t *Index) Put(key int64, val int32) {
	if t.cells == nil {
		t.grow()
	}
	i, ok := t.Slot(key)
	switch {
	case ok:
		t.cells[i].val = val
		return
	case t.Crowded():
		t.grow()
		i, _ = t.Slot(key)
	}
	t.PutAt(i, key, val)
}

// grow doubles the table (a table with no storage gets minIndexCells)
// and reinserts every key.
func (t *Index) grow() {
	old := t.cells
	size := 2 * len(old)
	if size == 0 {
		size = minIndexCells
	}
	*t = NewIndex(size)
	for _, c := range old {
		if c.key == 0 {
			continue
		}
		i := t.home(int64(c.key) - 1)
		for t.cells[i].key != 0 {
			i = (i + 1) & t.mask
		}
		t.cells[i] = c
		t.n++
	}
}

// At returns the key and value in cell i, for a walk over [0, Cap());
// ok is false for an empty cell.
func (t *Index) At(i int) (key int64, val int32, ok bool) {
	c := t.cells[i]
	return int64(c.key) - 1, c.val, c.key != 0
}

// Remove deletes key if present.
func (t *Index) Remove(key int64) {
	if t.n == 0 {
		return
	}
	if i, ok := t.Slot(key); ok {
		t.DeleteAt(i)
	}
}

// DeleteAt empties cell i, which Slot found, with backward-shift
// deletion, keeping every remaining entry reachable from its home cell
// without tombstones.
func (t *Index) DeleteAt(i uint64) {
	t.n--
	for {
		t.cells[i] = indexCell{}
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
