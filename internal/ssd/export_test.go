package ssd

// MappingAllocated reports whether each direction of d's FTL mapping
// holds any storage, sparse or flat.
func (d *Device) MappingAllocated() (l2p, p2l bool) {
	f := d.ftl
	return f.l2p.flat != nil || f.l2p.table.cells != nil, f.p2l.flat != nil || f.p2l.table.cells != nil
}
