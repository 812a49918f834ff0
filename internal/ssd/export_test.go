package ssd

// MappingAllocated reports whether each direction of d's FTL mapping
// holds any storage, sparse or flat.
func (d *Device) MappingAllocated() (l2p, p2l bool) {
	f := d.ftl
	return f.l2p.flat != nil || f.l2p.table.Cap() != 0, f.p2l.flat != nil || f.p2l.table.Cap() != 0
}

// BufferUsed reports the bytes d's write buffer holds.
func (d *Device) BufferUsed() int64 { return d.buf.Used() }
