// The page cache: mapped pages, the clean LRU, the buffered read and
// write paths, and readahead. The hit path is allocation-free — an
// open-addressed index probe (sim.Index, page idx -> page id), list
// relinks, CPU charges, and one pooled engine event — so cache-resident
// workloads measure the modeled copy cost, not the simulator's.
package fs

import (
	"repro/internal/cpu"
	"repro/internal/probe"
	"repro/internal/sim"
)

// page is one cache page. Clean, idle pages sit on the clean LRU
// (prev/next) and are the only eviction candidates; dirty pages queue
// on the dirty FIFO (dnext) in first-dirtied order; pages under
// writeback are on neither list.
type page struct {
	idx        int64
	id         int32 // index in FS.pageByID; fixed for the page's life
	dirty      bool
	writing    bool // writeback in flight
	redirty    bool // dirtied again while writing
	dirtyAt    sim.Time
	prev, next *page // clean-LRU links
	dnext      *page // dirty-FIFO link
}

// --- clean-LRU list (head = most recent, evict from tail) ---

func (f *FS) cleanPush(pg *page) {
	pg.prev = nil
	pg.next = f.cleanHead
	if f.cleanHead != nil {
		f.cleanHead.prev = pg
	}
	f.cleanHead = pg
	if f.cleanTail == nil {
		f.cleanTail = pg
	}
}

func (f *FS) cleanUnlink(pg *page) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		f.cleanHead = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		f.cleanTail = pg.prev
	}
	pg.prev, pg.next = nil, nil
}

// touch moves a hit page to the LRU head (dirty and writing pages are
// not on the clean list, so only clean pages move).
func (f *FS) touch(pg *page) {
	if pg.dirty || pg.writing || f.cleanHead == pg {
		return
	}
	f.cleanUnlink(pg)
	f.cleanPush(pg)
}

// --- dirty FIFO (head = oldest) ---

func (f *FS) dirtyAppend(pg *page) {
	pg.dnext = nil
	if f.dirtyTail != nil {
		f.dirtyTail.dnext = pg
	} else {
		f.dirtyHead = pg
	}
	f.dirtyTail = pg
}

func (f *FS) dirtyPop() *page {
	pg := f.dirtyHead
	f.dirtyHead = pg.dnext
	if f.dirtyHead == nil {
		f.dirtyTail = nil
	}
	pg.dnext = nil
	return pg
}

// markDirty moves a cached page into the dirty pool.
func (f *FS) markDirty(pg *page, now sim.Time) {
	if pg.writing {
		pg.redirty = true
		return
	}
	if pg.dirty {
		return // keeps its original age
	}
	f.cleanUnlink(pg)
	pg.dirty = true
	pg.dirtyAt = now
	f.nDirty++
	f.dirtyAppend(pg)
	f.armExpire()
}

// lookup returns the cached page for idx, or nil.
//
//ullvet:noalloc bench=BenchmarkFSBufferedRead
func (f *FS) lookup(idx int64) *page {
	if id, ok := f.cache.Get(idx); ok {
		return f.pageByID[id]
	}
	return nil
}

// insertPage maps idx to a cache page, evicting the coldest clean page
// when the cache is full. Returns nil when nothing is evictable (every
// page dirty or under writeback) — the caller falls back to bypassing
// the cache.
func (f *FS) insertPage(idx int64) *page {
	var pg *page
	if f.nCached < f.pages {
		// Pages are never freed once allocated — eviction reuses them in
		// place — so growth up to capacity is a plain allocation, and the
		// id registry only ever appends.
		pg = &page{id: int32(len(f.pageByID))}
		f.pageByID = append(f.pageByID, pg)
		f.nCached++
	} else {
		pg = f.cleanTail
		if pg == nil {
			return nil
		}
		f.cleanUnlink(pg)
		f.cache.Remove(pg.idx)
		f.stats.Evicted++
	}
	pg.idx = idx
	pg.dirty, pg.writing, pg.redirty = false, false, false
	f.cache.Put(idx, pg.id)
	f.cleanPush(pg)
	f.stats.Inserted++
	return pg
}

// fillDone lands one page read: insert it (clean or dirty), settle the
// joined host op if any, and recycle the fill.
func (f *FS) fillDone(fl *fill) {
	op, dirty := fl.op, fl.dirty
	if op != nil {
		// The fill's device trip is already phase-attributed downstream;
		// this edge labels the delivery back into the cache layer.
		if dirty {
			op.span.To(probe.PRMW, f.eng.Now())
		} else {
			op.span.To(probe.PCacheMiss, f.eng.Now())
		}
	}
	pg := f.lookup(fl.idx)
	if pg == nil {
		pg = f.insertPage(fl.idx)
		if pg == nil {
			f.stats.InsertSkips++
		} else {
			f.core.Pay(cpu.FnVFS, f.costs.Insert)
		}
	}
	if dirty {
		if pg != nil {
			f.markDirty(pg, f.eng.Now())
		} else if op != nil {
			// The modified page has nowhere to live: push it straight
			// down instead of losing the write.
			f.stats.WriteThrough++
			op.left++
			f.pr.SetSpan(op.span)
			f.gate.submit(true, fl.idx*f.ps, int(f.ps), op.fn)
		}
	}
	fl.op = nil
	fl.next = f.freeFills
	f.freeFills = fl
	if op != nil {
		f.opStep(op)
	}
	if dirty {
		f.maybeWriteback()
	}
}

// Submit is the Target entry point: the buffered I/O path.
//
//ullvet:noalloc bench=BenchmarkFSBufferedRead
func (f *FS) Submit(write bool, offset int64, length int, done func()) {
	if write {
		f.write(offset, length, done)
	} else {
		f.read(offset, length, done)
	}
}

// read serves one buffered read. Hits pay lookup + copy inline; a miss
// serializes the way the real path does — syscall + lookup, then the
// block read, then insert + copy-to-user — so the filesystem's fixed
// host bill lands on top of the device latency, not beside it.
func (f *FS) read(offset int64, length int, done func()) {
	f.stats.Reads++
	sp := f.pr.TakeSpan()
	if f.pages == 0 {
		// No cache: O_DIRECT semantics, straight through.
		f.pr.SetSpan(sp)
		f.gate.submit(false, offset, length, done)
		return
	}
	first, last := offset/f.ps, (offset+int64(length)-1)/f.ps
	n := last - first + 1
	f.stats.PagesRead += uint64(n)
	f.core.Pay(cpu.FnSyscall, f.costs.Syscall)
	f.core.PayN(cpu.FnVFS, f.costs.Lookup, n)
	f.core.PayN(cpu.FnVFS, f.costs.CopyPerPage, n)
	pre := f.costs.Syscall.Time + f.costs.Lookup.Time*sim.Time(n)

	var op *fsOp
	delay := pre
	for idx := first; idx <= last; idx++ {
		if pg := f.lookup(idx); pg != nil {
			f.stats.Hits++
			f.touch(pg)
			delay += f.costs.CopyPerPage.Time
			continue
		}
		f.stats.Misses++
		if op == nil {
			op = f.getOp(done)
			op.span = sp
		}
		op.left++
		op.tail += f.costs.Insert.Time + f.costs.CopyPerPage.Time
		// The block read issues only after the syscall-side walk.
		f.eng.AfterArg(pre, f.fillIssueFn, f.getFill(idx, false, op))
	}
	f.readahead(offset, length)
	if op == nil {
		sp.Tail(probe.PCacheHit)
		f.eng.After(delay, done) // pure hit: nothing allocated
		return
	}
	op.left++ // the hit-side work joins the child reads
	f.eng.After(delay, op.fn)
}

// readahead detects a sequential stream (two back-to-back extents) and
// prefetches the next ReadaheadPages pages in the background. Prefetched
// pages become visible when their reads land; a read arriving earlier
// misses and issues its own fill — conservative, like a real window
// still in flight.
func (f *FS) readahead(offset int64, length int) {
	if f.cfg.ReadaheadPages <= 0 {
		return
	}
	if offset == f.lastEnd {
		f.streak++
	} else {
		// A new stream: the covered-window mark belongs to the old one.
		f.streak = 0
		f.raNext = 0
	}
	f.lastEnd = offset + int64(length)
	if f.streak < 2 {
		return
	}
	start := (f.lastEnd + f.ps - 1) / f.ps
	if start < f.raNext {
		start = f.raNext // window already covered
	}
	limit := (f.lastEnd+f.ps-1)/f.ps + int64(f.cfg.ReadaheadPages)
	if max := f.exported / f.ps; limit > max {
		limit = max
	}
	for idx := start; idx < limit; idx++ {
		if f.lookup(idx) != nil {
			continue
		}
		f.stats.Readaheads++
		fl := f.getFill(idx, false, nil)
		f.gate.submit(false, idx*f.ps, int(f.ps), fl.fn)
	}
	if limit > f.raNext {
		f.raNext = limit
	}
}

// write serves one buffered write: copy into cached pages and mark them
// dirty. Full-page spans over uncached pages allocate fresh pages;
// partial spans must read-modify-write; when nothing is evictable the
// write goes straight down (write-through) instead of blocking.
func (f *FS) write(offset int64, length int, done func()) {
	f.stats.Writes++
	sp := f.pr.TakeSpan()
	if f.pages == 0 {
		f.pr.SetSpan(sp)
		f.gate.submit(true, offset, length, done)
		return
	}
	first, last := offset/f.ps, (offset+int64(length)-1)/f.ps
	n := last - first + 1
	f.stats.PagesWritten += uint64(n)
	f.core.Pay(cpu.FnSyscall, f.costs.Syscall)
	f.core.PayN(cpu.FnVFS, f.costs.Lookup, n)
	f.core.PayN(cpu.FnVFS, f.costs.CopyPerPage, n)
	delay := f.costs.Syscall.Time + (f.costs.Lookup.Time+f.costs.CopyPerPage.Time)*sim.Time(n)

	now := f.eng.Now()
	var op *fsOp
	for idx := first; idx <= last; idx++ {
		pstart := idx * f.ps
		spanOff, spanEnd := offset, offset+int64(length)
		if spanOff < pstart {
			spanOff = pstart
		}
		if spanEnd > pstart+f.ps {
			spanEnd = pstart + f.ps
		}
		if pg := f.lookup(idx); pg != nil {
			f.touch(pg)
			f.markDirty(pg, now)
			continue
		}
		if spanEnd-spanOff == f.ps {
			// Full overwrite: no fill needed.
			if pg := f.insertPage(idx); pg != nil {
				f.core.Pay(cpu.FnVFS, f.costs.Insert)
				delay += f.costs.Insert.Time
				f.markDirty(pg, now)
				continue
			}
			f.stats.WriteThrough++
			if op == nil {
				op = f.getOp(done)
				op.span = sp
			}
			op.left++
			f.pr.SetSpan(op.span)
			f.gate.submit(true, spanOff, int(spanEnd-spanOff), op.fn)
			continue
		}
		// Partial span over an uncached page: read it first (after the
		// syscall-side walk), then modify — the copy rides the tail.
		f.stats.RMWReads++
		if op == nil {
			op = f.getOp(done)
			op.span = sp
		}
		op.left++
		op.tail += f.costs.CopyPerPage.Time
		f.eng.AfterArg(f.costs.Syscall.Time+f.costs.Lookup.Time,
			f.fillIssueFn, f.getFill(idx, true, op))
	}
	if op == nil {
		sp.Tail(probe.PCacheHit)
		f.eng.After(delay, done)
	} else {
		op.left++
		f.eng.After(delay, op.fn)
	}
	f.maybeWriteback()
}

// gate serializes child access when the child serves one request at a
// time (a bare pvsync2 stack) and passes straight through otherwise.
type gate struct {
	dev    Backend
	serial bool
	busy   bool
	q      sim.FIFO[*gateOp]
	free   *gateOp
	pr     *probe.Probe
}

// gateOp is one queued child request; fn is bound once. The span rides
// the queue with the op so a deferred issue hands the right span to the
// child, not whatever the register holds by then.
type gateOp struct {
	g      *gate
	write  bool
	flush  bool
	offset int64
	length int
	done   func()
	span   *probe.Span
	fn     func()
	next   *gateOp
}

// get takes a queued-op context from the free list, binding its child
// completion closure once on first allocation.
//
//ullvet:pool get
func (g *gate) get() *gateOp {
	op := g.free
	if op == nil {
		op = &gateOp{g: g}
		op.fn = func() { op.g.opDone(op) }
	} else {
		g.free = op.next
		op.next = nil
	}
	return op
}

// put clears an op's caller state and returns it to the free list.
//
//ullvet:pool put
func (g *gate) put(op *gateOp) {
	op.done = nil
	op.next = g.free
	g.free = op
}

func (g *gate) submit(write bool, offset int64, length int, done func()) {
	if !g.serial {
		g.dev.Submit(write, offset, length, done)
		return
	}
	op := g.get()
	op.write, op.flush = write, false
	op.offset, op.length = offset, length
	op.done = done
	op.span = g.pr.TakeSpan()
	g.dispatch(op)
}

func (g *gate) flush(done func()) {
	if !g.serial {
		g.dev.Flush(done)
		return
	}
	op := g.get()
	op.write, op.flush = false, true
	op.offset, op.length = 0, 0
	op.done = done
	op.span = g.pr.TakeSpan()
	g.dispatch(op)
}

func (g *gate) dispatch(op *gateOp) {
	if !g.busy && g.q.Len() == 0 {
		g.issue(op)
	} else {
		g.q.Push(op)
	}
}

func (g *gate) issue(op *gateOp) {
	g.busy = true
	g.pr.SetSpan(op.span)
	op.span = nil
	if op.flush {
		g.dev.Flush(op.fn)
	} else {
		g.dev.Submit(op.write, op.offset, op.length, op.fn)
	}
}

func (g *gate) opDone(op *gateOp) {
	done := op.done
	g.put(op)
	g.busy = false
	if g.q.Len() > 0 {
		g.issue(g.q.Pop())
	}
	done()
}
