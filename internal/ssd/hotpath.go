package ssd

// Pooled per-IO state for the device's hot paths. One submitted host
// command reuses one set of these objects end to end instead of
// allocating an event closure per hop; the simulator is single-goroutine
// by design, so plain intrusive free lists (no sync.Pool, no locking)
// are sufficient and faster. Objects that outlive the function that
// created them (they ride inside scheduled events or die queues) are
// recycled at the end of their step chain, immediately before invoking
// the next layer's callback, so a recycled object is never touched again.
//
// The pooled objects:
//   - readCtx: one host read, fanned across its media groups and DRAM hits;
//   - readGroup: the slots of one host read that share a flash page;
//   - flashReadJob: one array read plus its channel data-out transfer;
//   - prefetchJob: one background prefetch read;
//   - pendingWrite: one host write from DMA arrival to buffer admission;
//   - programJob: one host page program and its slot commits;
//   - gcRun: one per flash unit rather than per IO, the unit's whole
//     garbage-collection chain (victim, migration chunks, flash ops).
//
// Write-buffer entries are pooled by the WriteBuffer itself (cache.go).

import (
	"repro/internal/flash"
	"repro/internal/sim"
)

// readCtx fans one host read across its media groups and DRAM hits and
// completes the request when the last leg lands.
type readCtx struct {
	d         *Device
	req       *Request
	remaining int
	next      *readCtx
}

func (d *Device) getReadCtx() *readCtx {
	c := d.freeReadCtx
	if c == nil {
		return &readCtx{d: d}
	}
	d.freeReadCtx = c.next
	c.next = nil
	return c
}

// finish retires one leg of the read; the last leg DMAs the payload to
// the host and schedules the shared completion path.
func (c *readCtx) finish() {
	c.remaining--
	if c.remaining > 0 {
		return
	}
	d := c.d
	r := c.req
	c.req = nil
	c.next = d.freeReadCtx
	d.freeReadCtx = c
	// All media done: DMA the payload to the host.
	_, end := d.pcie.transfer(d.eng.Now(), r.Len)
	d.eng.AtArg(end, d.completeStepFn, r)
}

// readGroup is one physical flash page's worth of a host read: the slots
// that were written together and share one array read.
type readGroup struct {
	ctx   *readCtx
	ppn   int64 // first slot's ppn
	page  int64
	bytes int
	lpns  []int64
	next  *readGroup
}

func (d *Device) getReadGroup() *readGroup {
	g := d.freeReadGrp
	if g == nil {
		return &readGroup{}
	}
	d.freeReadGrp = g.next
	g.next = nil
	return g
}

// readGroupDone runs when a group's flash read and channel transfer are
// complete: populate the read cache, then retire the group's leg.
func (d *Device) readGroupDone(a any) {
	g := a.(*readGroup)
	for _, lpn := range g.lpns {
		d.rcache.Insert(lpn)
	}
	ctx := g.ctx
	g.ctx = nil
	g.lpns = g.lpns[:0]
	g.next = d.freeReadGrp
	d.freeReadGrp = g
	ctx.finish()
}

// flashReadJob carries one array read through the die and the channel
// data-out transfer, then hands off to (fn, arg). op.Done is the only
// per-job closure and is bound once when the job is first allocated.
type flashReadJob struct {
	d     *Device
	unit  int
	bytes int
	fn    func(any)
	arg   any
	op    flash.Op
	next  *flashReadJob
}

func (d *Device) getFlashRead() *flashReadJob {
	j := d.freeFlashRd
	if j == nil {
		j = &flashReadJob{d: d}
		j.op.Kind = flash.OpRead
		j.op.Done = func(sim.Time) {
			ch := j.d.channelOf(j.unit)
			_, end := ch.reserve(j.d.eng.Now(), ch.xferTime(j.bytes)+j.d.cfg.RemapCost)
			j.d.eng.AtArg(end, j.d.flashChanDoneFn, j)
		}
		return j
	}
	d.freeFlashRd = j.next
	j.next = nil
	return j
}

// flashChanDone fires at the end of the channel data-out transfer: it
// recycles the job and invokes the caller's continuation.
func (d *Device) flashChanDone(a any) {
	j := a.(*flashReadJob)
	fn, arg := j.fn, j.arg
	j.fn = nil
	j.arg = nil
	j.next = d.freeFlashRd
	d.freeFlashRd = j
	fn(arg)
}

// flashRead performs the array read and the channel data-out transfer.
// bytes is the payload to move over the channel; fn(arg) runs when the
// data is in controller DRAM.
func (d *Device) flashRead(ppn int64, bytes int, background bool, fn func(any), arg any) {
	unit := d.ftl.UnitOf(ppn)
	d.stats.FlashReads++
	j := d.getFlashRead()
	j.unit = unit
	j.bytes = bytes
	j.fn = fn
	j.arg = arg
	j.op.Background = background
	d.units[unit].Submit(&j.op)
}

// prefetchJob remembers which LPN a background prefetch read is filling.
type prefetchJob struct {
	lpn  int64
	next *prefetchJob
}

func (d *Device) getPrefetch() *prefetchJob {
	p := d.freePrefetch
	if p == nil {
		return &prefetchJob{}
	}
	d.freePrefetch = p.next
	p.next = nil
	return p
}

func (d *Device) prefetchDone(a any) {
	p := a.(*prefetchJob)
	d.rcache.Insert(p.lpn)
	p.next = d.freePrefetch
	d.freePrefetch = p
}

// pendingWrite is a host write from DMA arrival to buffer admission;
// stalled writes wait in Device.bufWaiters holding one of these.
type pendingWrite struct {
	d       *Device
	req     *Request
	spans   []slotSpan
	stageFn func() // bound once: post-DMA buffer admission step
	next    *pendingWrite
}

func (d *Device) getPendingWrite() *pendingWrite {
	pw := d.freePending
	if pw == nil {
		pw = &pendingWrite{d: d}
		pw.stageFn = func() {
			dev := pw.d
			if dev.bufWaiters.Len() > 0 || !dev.buf.HasSpace(int64(pw.req.Len)) {
				dev.stats.WriteStalls++
				dev.bufWaiters.Push(pw)
				return
			}
			dev.acceptWrite(pw)
		}
		return pw
	}
	d.freePending = pw.next
	pw.next = nil
	return pw
}

func (d *Device) putPendingWrite(pw *pendingWrite) {
	pw.req = nil
	pw.spans = pw.spans[:0]
	pw.next = d.freePending
	d.freePending = pw
}

// programJob is one flash page program: channel data-in transfer, array
// program, then per-slot mapping commits. Its batch is popped off the
// device's ready queue, so the queue keeps moving underneath it.
type programJob struct {
	d        *Device
	unit     int
	firstPPN int64
	batch    []*bufEntry
	op       flash.Op
	next     *programJob
}

func (d *Device) getProgram() *programJob {
	j := d.freeProgram
	if j == nil {
		j = &programJob{d: d}
		j.op.Kind = flash.OpProgram
		j.op.Done = func(sim.Time) {
			dev := j.d
			dev.progInFlight--
			for i, e := range j.batch {
				dev.finishFlush(e, j.firstPPN+int64(i))
			}
			for i := range j.batch {
				j.batch[i] = nil
			}
			j.batch = j.batch[:0]
			j.next = dev.freeProgram
			dev.freeProgram = j
			dev.admitWaiters()
			dev.dispatchFlushes()
		}
		return j
	}
	d.freeProgram = j.next
	j.next = nil
	return j
}

// programXfer fires when the channel data-in transfer completes and
// hands the page program to the die.
func (d *Device) programXfer(a any) {
	j := a.(*programJob)
	d.stats.FlashPrograms++
	d.stats.SlotsFlushed += uint64(len(j.batch))
	d.units[j.unit].Submit(&j.op)
}

// gcRun is one flash unit's garbage collector: the migrate → read →
// program … → erase → pass chain that reclaims victim blocks until the
// unit reaches its high watermark. The FTL's GCRunning latch admits one
// chain per unit at a time and every step hands off to the next, so one
// run per unit owns all the chain's state: the victim's valid slots, the
// current source page's chunk, the program in flight, and one flash op
// per kind whose Done callbacks are bound once when the run is made.
type gcRun struct {
	d     *Device
	unit  int
	start sim.Time // pass start, for the background trace event

	block int             // victim being reclaimed
	valid []MigrationPage // the victim's valid slots, PPN-sorted
	next  int             // first valid slot not yet chunked
	chunk []MigrationPage // still-current slots of one source page
	done  int             // chunk slots already programmed
	ppn   int64           // first slot of the program in flight
	count int             // chunk slots in the program in flight

	read, prog, erase flash.Op
	retryFn           func()
}

// newGCRun makes unit's collector with its buffers sized for a whole
// block and a whole page, so steady-state GC allocates nothing.
func (d *Device) newGCRun(unit int) *gcRun {
	r := &gcRun{
		d:     d,
		unit:  unit,
		valid: make([]MigrationPage, 0, d.ftl.slotsPerBlock),
		chunk: make([]MigrationPage, 0, d.ftl.slotsPerPage),
	}
	r.read = flash.Op{Kind: flash.OpRead, Background: true, Done: r.readDone}
	r.prog = flash.Op{Kind: flash.OpProgram, Done: r.programDone}
	r.erase = flash.Op{Kind: flash.OpErase, Done: r.eraseDone}
	r.retryFn = r.program
	return r
}

// pass reclaims the next victim, or ends the run once the unit is at
// its high watermark or has nothing reclaimable.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (r *gcRun) pass() {
	d := r.d
	if d.ftl.FreeBlocks(r.unit) < d.cfg.GCHighWater {
		var ok bool
		if r.block, r.valid, ok = d.ftl.Victim(r.unit, r.valid); ok {
			r.next = 0
			r.migrate()
			return
		}
	}
	d.ftl.SetGCRunning(r.unit, false)
	if d.pr != nil {
		d.pr.Emit(d.gcTrack, "gc", r.start, d.eng.Now()-r.start)
	}
}

// migrate relocates the victim's valid slots one source flash page at a
// time (slots written together share one array read), so host
// operations interleave in the die queue, then erases the block. GC
// relocates strictly within its own unit: the reserve block guarantees
// space, since a victim has at most a block's worth of valid slots and
// at least one invalid one.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (r *gcRun) migrate() {
	f := r.d.ftl
	for r.next < len(r.valid) {
		// Chunk: valid slots sharing the source flash page, still current.
		srcPage := f.PageOf(r.valid[r.next].PPN)
		r.chunk = r.chunk[:0]
		for ; r.next < len(r.valid) && f.PageOf(r.valid[r.next].PPN) == srcPage; r.next++ {
			if p := r.valid[r.next]; f.StillCurrent(p.LPN, p.PPN) {
				r.chunk = append(r.chunk, p)
			}
		}
		if len(r.chunk) > 0 {
			r.d.units[r.unit].Submit(&r.read)
			return
		}
	}
	r.d.stats.FlashErases++
	r.d.units[r.unit].Submit(&r.erase)
}

// readDone starts programming the chunk the source page read fetched.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (r *gcRun) readDone(sim.Time) {
	r.done = 0
	r.program()
}

// program writes the chunk's remaining slots, packing runs into page
// programs, and moves on to the next source page once all have landed.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (r *gcRun) program() {
	if r.done == len(r.chunk) {
		r.migrate()
		return
	}
	d := r.d
	r.ppn, r.count = d.ftl.AllocateRun(r.unit, len(r.chunk)-r.done, true)
	if r.count == 0 {
		// Cannot happen while the reserve invariant holds, but stay
		// robust: retry after erases elsewhere free space.
		d.eng.After(100*sim.Microsecond, r.retryFn)
		return
	}
	d.units[r.unit].Submit(&r.prog)
}

// programDone commits the programmed slots that are still current (the
// host may have overwritten one meanwhile) and continues the chunk.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (r *gcRun) programDone(sim.Time) {
	d := r.d
	for i, p := range r.chunk[r.done : r.done+r.count] {
		ppn := r.ppn + int64(i)
		if d.ftl.StillCurrent(p.LPN, p.PPN) {
			d.stats.GCMigrations++
			d.ftl.Commit(p.LPN, ppn)
		} else {
			d.ftl.CommitDiscard(ppn)
		}
	}
	r.done += r.count
	r.program()
}

// eraseDone frees the victim, resumes flushes parked for space, and
// looks for the next victim.
//
//ullvet:noalloc bench=BenchmarkDeviceGC
func (r *gcRun) eraseDone(sim.Time) {
	r.d.ftl.EraseDone(r.unit, r.block)
	r.d.retryGCWaiters()
	r.pass()
}

// appendSpans appends the portions of [offset, offset+length) that fall
// on each mapping slot of size unit to dst and returns it.
func appendSpans(dst []slotSpan, unit int, offset int64, length int) []slotSpan {
	us := int64(unit)
	for length > 0 {
		lpn := offset / us
		off := int(offset % us)
		n := unit - off
		if n > length {
			n = length
		}
		dst = append(dst, slotSpan{lpn: lpn, off: off, bytes: n})
		offset += int64(n)
		length -= n
	}
	return dst
}

// bindHotPath creates the device's shared scheduling callbacks. Each is
// allocated exactly once; per-IO scheduling passes them with a pointer
// argument (AtArg/AfterArg), which keeps the steady-state IO path free
// of closure allocations.
func (d *Device) bindHotPath() {
	d.dispatchFn = func(a any) { d.dispatchCmd(a.(*Request)) }
	d.completeStepFn = func(a any) { d.complete(a.(*Request)) }
	d.completeFn = func(a any) {
		now := d.eng.Now()
		d.meter.CommandFinished(now)
		a.(*Request).Done(now)
	}
	d.awaitDrainFn = func(a any) { d.awaitDrain(a.(*Request)) }
	d.flushTimerFn = func(a any) {
		e := a.(*bufEntry)
		e.flushEv = sim.EventRef{}
		d.startFlush(e)
	}
	d.rmwDoneFn = func(a any) { d.enqueueReady(a.(*bufEntry)) }
	d.readFinishFn = func(a any) { a.(*readCtx).finish() }
	d.readGroupDoneFn = d.readGroupDone
	d.prefetchDoneFn = d.prefetchDone
	d.flashChanDoneFn = d.flashChanDone
	d.programXferFn = d.programXfer
	d.batchWindowFn = func() {
		d.batchArmed = false
		d.dispatchFlushes()
	}
}
