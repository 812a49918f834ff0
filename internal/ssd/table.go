package ssd

import "repro/internal/sim"

// mapDir is one direction of the FTL mapping (l2p or p2l): an int32 per
// index of a fixed domain, 0 unless stored. Storage follows what a run
// writes. A direction holds nothing until its first store, then an
// override table of about 1/32 of the domain, and, once that table is
// half full, the flat array. A flat direction stays flat.
type mapDir struct {
	flat  []int32   // the whole domain once promoted; nil before
	table sim.Index // the overrides while sparse
	n     int64     // domain size
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
	v, _ := m.table.Get(i)
	return v
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
	if m.table.Cap() == 0 {
		m.table = sim.NewIndex(sparseCells(m.n))
	}
	c, ok := m.table.Slot(i)
	switch {
	case ok:
		m.table.SetVal(c, v)
	case m.table.Crowded():
		m.promote()
		m.flat[i] = v
	default:
		m.table.PutAt(c, i, v)
	}
}

// promote moves the overrides into the flat array and drops the table.
func (m *mapDir) promote() {
	m.flat = make([]int32, m.n)
	for c := 0; c < m.table.Cap(); c++ {
		if k, v, ok := m.table.At(c); ok {
			m.flat[k] = v
		}
	}
	m.table = sim.Index{}
}

// clearRange resets entries [lo, hi) to 0.
func (m *mapDir) clearRange(lo, hi int64) {
	if m.flat != nil {
		clear(m.flat[lo:hi])
		return
	}
	for i := lo; i < hi && m.table.Len() > 0; i++ {
		m.table.Remove(i)
	}
}
