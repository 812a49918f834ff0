package ssd

import (
	"fmt"
	"math"

	"repro/internal/flash"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Op is a host block command kind.
type Op uint8

// Host command kinds. Read and Write move data; Trim invalidates a range
// (ATA TRIM / NVMe Deallocate); Flush forces buffered writes to media.
const (
	OpRead Op = iota
	OpWrite
	OpTrim
	OpFlush
)

// Request is one host block command. Done fires at completion time —
// the moment the device posts the completion (the NVMe layer then adds
// CQ/interrupt delivery on top).
//
// The Write field is kept alongside Op for the common read/write case;
// setting Write selects OpWrite.
type Request struct {
	Write  bool
	Op     Op
	Offset int64
	Len    int
	Done   func(end sim.Time)
	// Span is the request's observability ledger (nil unless tracing is
	// on); the queue pair sets it at submit and the device marks the
	// queue-to-service edge. Purely observational.
	Span *probe.Span
}

func (r *Request) kind() Op {
	if r.Write {
		return OpWrite
	}
	return r.Op
}

// Stats aggregates device activity counters.
type Stats struct {
	HostReads     uint64
	HostWrites    uint64
	HostTrims     uint64
	HostFlushes   uint64
	FlashReads    uint64 // page reads issued to the media
	FlashPrograms uint64 // page programs issued to the media
	FlashErases   uint64
	SlotsFlushed  uint64 // mapping slots written by programs
	BufferHits    uint64 // reads served from the write buffer
	CacheHits     uint64 // reads served from the read cache
	ZeroFills     uint64 // reads of never-written slots
	Prefetches    uint64
	RMWReads      uint64 // read-modify-write slot fills (sub-slot writes)
	GCMigrations  uint64 // slots relocated by GC
	GCRuns        uint64
	WriteStalls   uint64 // host writes that waited for buffer space
	AllocStalls   uint64 // flushes that waited for GC
}

// Device is one simulated NVMe SSD.
type Device struct {
	cfg  Config
	unit int // mapping unit bytes (cached)
	eng  *sim.Engine
	rng  *sim.RNG

	ftl    *FTL
	units  []*flash.Die
	chans  []*link
	pcie   *link
	ctrl   resource
	buf    *WriteBuffer
	rcache *ReadCache
	meter  *Meter

	allocOrder  []int
	allocCursor int

	verCounter uint64
	lpnVer     map[int64]uint64
	cmdCount   uint64

	// Host writes waiting for buffer space, FIFO.
	bufWaiters []*pendingWrite
	// Flush-ready entries awaiting batch dispatch. The firmware paces
	// host programs at one in flight per unit, so under load the backlog
	// pools here and packs into whole-page programs.
	flushReady    []*bufEntry
	batchArmed    bool
	graceDeadline sim.Time
	progInFlight  int

	// Per-unit GC low watermarks, jittered so reclaim onset staggers
	// across units instead of stalling the whole device at once.
	gcLow []int
	// Observability: per-unit GC pass start times feed background trace
	// events on the device's track. Nil probe when observability is off.
	pr      *probe.Probe
	gcTrack string
	gcStart []sim.Time
	// Flush batches waiting for an erased block, FIFO.
	gcWaiters []*bufEntry

	// Sequential-stream detection for prefetch.
	lastReadEnd  int64
	seqStreak    int
	prefetchedTo int64

	// Free lists of pooled per-IO state (hotpath.go) and scratch buffers
	// reused across calls. Single-goroutine by design, so no locking.
	freeReadCtx  *readCtx
	freeReadGrp  *readGroup
	freeFlashRd  *flashReadJob
	freePrefetch *prefetchJob
	freePending  *pendingWrite
	freeProgram  *programJob
	spanScratch  []slotSpan
	groupScratch []*readGroup

	// Shared scheduling callbacks, bound once in bindHotPath.
	dispatchFn      func(any)
	completeFn      func(any)
	completeStepFn  func(any)
	awaitDrainFn    func(any)
	flushTimerFn    func(any)
	rmwDoneFn       func(any)
	readFinishFn    func(any)
	readGroupDoneFn func(any)
	prefetchDoneFn  func(any)
	flashChanDoneFn func(any)
	programXferFn   func(any)
	batchWindowFn   func()

	stats Stats
}

// slotSpan is the portion of a request that falls on one mapping slot.
type slotSpan struct {
	lpn   int64
	off   int // byte offset within the slot
	bytes int
}

// NewDevice builds a device on eng. The device draws randomness from its
// own stream derived from cfg.Seed.
func NewDevice(cfg Config, eng *sim.Engine) *Device {
	if cfg.SuperChannels && cfg.Channels%2 != 0 {
		panic("ssd: super-channels require an even channel count")
	}
	d := &Device{
		cfg:    cfg,
		unit:   cfg.MappingUnitBytes(),
		eng:    eng,
		rng:    sim.NewRNG(cfg.Seed),
		ftl:    NewFTL(cfg),
		buf:    NewWriteBuffer(cfg.WriteBufferBytes, cfg.MappingUnitBytes()),
		rcache: NewReadCache(cfg.ReadCachePages),
		meter:  NewMeter(cfg.Power, 10*sim.Millisecond),
		lpnVer: make(map[int64]uint64),
	}
	energy := d.meter.AddEnergy
	d.units = make([]*flash.Die, cfg.Units())
	for i := range d.units {
		d.units[i] = flash.NewDie(cfg.NAND, eng, d.rng.Fork(), energy)
	}
	d.chans = make([]*link, cfg.Channels)
	for i := range d.chans {
		c := newLink(cfg.ChannelMBps, 0)
		c.energy = energy
		c.watts = cfg.Power.ChannelActive
		d.chans[i] = c
	}
	d.pcie = newLink(cfg.PCIeMBps, cfg.PCIeLatency)
	d.gcLow = make([]int, cfg.Units())
	for i := range d.gcLow {
		d.gcLow[i] = cfg.GCLowWater + d.rng.Intn(3)
	}
	if d.pr = probe.Get(eng); d.pr != nil {
		d.gcTrack = d.pr.Name("dev") + "/gc"
		d.gcStart = make([]sim.Time, cfg.Units())
	}
	d.buildAllocOrder()
	d.bindHotPath()
	return d
}

// buildAllocOrder defines the round-robin unit visit order for writes.
// With super-channels, consecutive allocations land on the two channels
// of a pair, so the halves of a split host block transfer in lockstep.
func (d *Device) buildAllocOrder() {
	c := d.cfg
	order := make([]int, 0, c.Units())
	if c.SuperChannels {
		for way := 0; way < c.WaysPerChannel; way++ {
			for plane := 0; plane < c.PlanesPerDie; plane++ {
				for pair := 0; pair < c.Channels/2; pair++ {
					order = append(order,
						d.unitIndex(2*pair, way, plane),
						d.unitIndex(2*pair+1, way, plane))
				}
			}
		}
	} else {
		for way := 0; way < c.WaysPerChannel; way++ {
			for plane := 0; plane < c.PlanesPerDie; plane++ {
				for ch := 0; ch < c.Channels; ch++ {
					order = append(order, d.unitIndex(ch, way, plane))
				}
			}
		}
	}
	d.allocOrder = order
}

func (d *Device) unitIndex(ch, way, plane int) int {
	return (ch*d.cfg.WaysPerChannel+way)*d.cfg.PlanesPerDie + plane
}

func (d *Device) channelOf(unit int) *link {
	return d.chans[unit/(d.cfg.WaysPerChannel*d.cfg.PlanesPerDie)]
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a snapshot of device counters.
func (d *Device) Stats() Stats { return d.stats }

// Meter exposes the power meter for experiment harnesses.
func (d *Device) Meter() *Meter { return d.meter }

// FTL exposes translation state for tests and stats.
func (d *Device) FTL() *FTL { return d.ftl }

// WearReport summarizes this device's media wear: erase-count spread
// plus the host/GC program-slot split behind write amplification.
func (d *Device) WearReport() WearReport {
	return WearReport{
		Erases:    d.ftl.Wear(),
		HostSlots: d.stats.SlotsFlushed,
		GCSlots:   d.stats.GCMigrations,
	}
}

// ExportedBytes reports host-visible capacity.
func (d *Device) ExportedBytes() int64 {
	return d.ftl.ExportedPages() * int64(d.unit)
}

// UnitStats aggregates the flash die counters across all units.
func (d *Device) UnitStats() flash.Stats {
	var total flash.Stats
	for _, u := range d.units {
		s := u.Stats()
		total.Reads += s.Reads
		total.Programs += s.Programs
		total.Erases += s.Erases
		total.Suspends += s.Suspends
		total.Retries += s.Retries
		total.BusyTime += s.BusyTime
	}
	return total
}

// scratchSpans computes spans into a reusable buffer; the result is only
// valid until the next scratchSpans call (never across an event).
func (d *Device) scratchSpans(offset int64, length int) []slotSpan {
	d.spanScratch = appendSpans(d.spanScratch[:0], d.unit, offset, length)
	return d.spanScratch
}

func (d *Device) fwJitter(t sim.Time) sim.Time {
	return d.rng.Jitter(t, d.cfg.FirmwareJitter)
}

// Submit enqueues a host command. Offsets must lie within the exported
// capacity; violations panic because they are harness bugs.
func (d *Device) Submit(r *Request) {
	if r.kind() != OpFlush {
		if r.Len <= 0 || r.Offset < 0 || r.Offset+int64(r.Len) > d.ExportedBytes() {
			panic(fmt.Sprintf("ssd: request out of bounds: off=%d len=%d cap=%d",
				r.Offset, r.Len, d.ExportedBytes()))
		}
	}
	now := d.eng.Now()
	d.meter.CommandStarted(now)
	// Periodic firmware checkpoint: the controller pipeline stalls while
	// FTL metadata persists, delaying every command behind it.
	d.cmdCount++
	if d.cfg.CheckpointEvery > 0 && d.cmdCount%d.cfg.CheckpointEvery == 0 {
		d.ctrl.reserve(now, d.rng.Jitter(d.cfg.CheckpointDuration, 0.2))
	}
	// Controller pipeline: one command decode at a time.
	_, ctrlEnd := d.ctrl.reserve(now, d.cfg.ControllerPerCmd)
	fw := d.fwJitter(d.cfg.FirmwareSubmit)
	if d.cfg.SuperChannels {
		fw += d.cfg.SplitDMACost
	}
	d.eng.AtArg(ctrlEnd+fw, d.dispatchFn, r)
}

// dispatchCmd routes a decoded command to its execution path.
func (d *Device) dispatchCmd(r *Request) {
	r.Span.To(probe.PQueue, d.eng.Now())
	switch r.kind() {
	case OpWrite:
		d.beginWrite(r)
	case OpRead:
		d.beginRead(r)
	case OpTrim:
		d.beginTrim(r)
	case OpFlush:
		d.beginFlushCmd(r)
	default:
		panic("ssd: unknown op")
	}
}

// beginTrim invalidates the mapping of every whole slot in the range —
// pure FTL bookkeeping plus a per-slot firmware cost, no media work.
func (d *Device) beginTrim(r *Request) {
	d.stats.HostTrims++
	var cost sim.Time
	for _, sp := range d.scratchSpans(r.Offset, r.Len) {
		if sp.off != 0 || sp.bytes != d.unit {
			continue // partial slots are left mapped, as real FTLs do
		}
		d.ftl.Trim(sp.lpn)
		d.rcache.Invalidate(sp.lpn)
		cost += 150 * sim.Nanosecond
	}
	d.eng.AfterArg(d.cfg.DRAMLatency+cost, d.completeStepFn, r)
}

// beginFlushCmd forces every buffered write toward media and completes
// when the buffer has fully drained.
func (d *Device) beginFlushCmd(r *Request) {
	d.stats.HostFlushes++
	// Expedite: cancel coalescing timers and make everything ready.
	for _, e := range d.buf.Entries() {
		if !e.flushEv.IsZero() {
			e.flushEv.Cancel()
			e.flushEv = sim.EventRef{}
		}
		d.startFlush(e)
	}
	d.graceDeadline = 1 // force partial batches out on the next dispatch
	d.dispatchFlushes()
	d.awaitDrain(r)
}

func (d *Device) awaitDrain(r *Request) {
	if d.buf.Used() == 0 && len(d.flushReady) == 0 && len(d.gcWaiters) == 0 {
		d.complete(r)
		return
	}
	d.eng.AfterArg(20*sim.Microsecond, d.awaitDrainFn, r)
}

// complete runs the shared completion path: completion firmware, then the
// caller's Done.
func (d *Device) complete(r *Request) {
	end := d.eng.Now() + d.fwJitter(d.cfg.FirmwareComplete)
	d.eng.AtArg(end, d.completeFn, r)
}

// --- Read path ---

func (d *Device) beginRead(r *Request) {
	d.stats.HostReads++
	spans := d.scratchSpans(r.Offset, r.Len)
	// Resolve each slot: write buffer, read cache, zero-fill, or media.
	// Media slots group by physical flash page — consecutive slots
	// written together share one array read.
	groups := d.groupScratch[:0]
	dramSlots := 0
	for _, sp := range spans {
		mask := d.buf.MaskFor(sp.off, sp.bytes)
		switch {
		case d.buf.Covers(sp.lpn, mask):
			d.stats.BufferHits++
			dramSlots++
		case d.rcache.Contains(sp.lpn):
			d.stats.CacheHits++
			dramSlots++
		default:
			ppn, ok := d.ftl.Lookup(sp.lpn)
			if !ok {
				d.stats.ZeroFills++
				dramSlots++
				continue
			}
			page := d.ftl.PageOf(ppn)
			if n := len(groups); n > 0 && groups[n-1].page == page {
				groups[n-1].bytes += sp.bytes
				groups[n-1].lpns = append(groups[n-1].lpns, sp.lpn)
			} else {
				g := d.getReadGroup()
				g.ppn, g.page, g.bytes = ppn, page, sp.bytes
				g.lpns = append(g.lpns, sp.lpn)
				groups = append(groups, g)
			}
		}
	}
	d.groupScratch = groups[:0]
	ctx := d.getReadCtx()
	ctx.req = r
	ctx.remaining = len(groups)
	if dramSlots > 0 {
		ctx.remaining++
	}
	d.noteReadStream(r)
	if ctx.remaining == 0 {
		// Nothing to do (degenerate); complete via DRAM latency.
		ctx.remaining = 1
		d.eng.AfterArg(d.cfg.DRAMLatency, d.readFinishFn, ctx)
		return
	}
	if dramSlots > 0 {
		d.eng.AfterArg(d.cfg.DRAMLatency, d.readFinishFn, ctx)
	}
	for _, g := range groups {
		g.ctx = ctx
		d.flashRead(g.ppn, g.bytes, false, d.readGroupDoneFn, g)
	}
}

// noteReadStream updates sequential-stream detection and launches
// prefetch once a stream is confirmed.
func (d *Device) noteReadStream(r *Request) {
	if r.Offset == d.lastReadEnd {
		d.seqStreak++
	} else {
		d.seqStreak = 0
		d.prefetchedTo = 0
	}
	d.lastReadEnd = r.Offset + int64(r.Len)
	if d.seqStreak < 2 || d.cfg.PrefetchPages == 0 {
		return
	}
	us := int64(d.unit)
	start := (d.lastReadEnd + us - 1) / us
	if start < d.prefetchedTo {
		start = d.prefetchedTo
	}
	end := d.lastReadEnd/us + int64(d.cfg.PrefetchPages*d.ftl.SlotsPerPage())
	for lpn := start; lpn < end && lpn < d.ftl.ExportedPages(); lpn++ {
		if d.rcache.Contains(lpn) || d.buf.Covers(lpn, d.buf.FullMask()) {
			continue
		}
		ppn, ok := d.ftl.Lookup(lpn)
		if !ok {
			d.rcache.Insert(lpn) // zero-fill slots cost nothing to "prefetch"
			continue
		}
		d.stats.Prefetches++
		p := d.getPrefetch()
		p.lpn = lpn
		d.flashRead(ppn, d.unit, true, d.prefetchDoneFn, p)
	}
	if end > d.prefetchedTo {
		d.prefetchedTo = end
	}
}

// --- Write path ---

func (d *Device) beginWrite(r *Request) {
	d.stats.HostWrites++
	// Host data DMA into the controller buffer.
	_, end := d.pcie.transfer(d.eng.Now(), r.Len)
	pw := d.getPendingWrite()
	pw.req = r
	pw.spans = appendSpans(pw.spans[:0], d.unit, r.Offset, r.Len)
	d.eng.At(end, pw.stageFn)
}

// acceptWrite stages the write in the buffer and acknowledges the host.
func (d *Device) acceptWrite(pw *pendingWrite) {
	for _, sp := range pw.spans {
		d.stageSpan(sp)
	}
	r := pw.req
	d.putPendingWrite(pw)
	d.eng.AfterArg(d.cfg.DRAMLatency, d.completeStepFn, r)
}

// stageSpan merges one slot span into the write buffer and schedules its
// flush.
func (d *Device) stageSpan(sp slotSpan) {
	mask := d.buf.MaskFor(sp.off, sp.bytes)
	d.rcache.Invalidate(sp.lpn)
	e, isNew := d.buf.Insert(sp.lpn, mask)
	if d.buf.Full(e) {
		// A fully dirty slot flushes immediately; nothing more can
		// coalesce into it.
		if !e.flushEv.IsZero() {
			e.flushEv.Cancel()
			e.flushEv = sim.EventRef{}
		}
		d.startFlush(e)
		return
	}
	if isNew {
		e.flushEv = d.eng.AfterArg(d.cfg.FlushDelay, d.flushTimerFn, e)
	}
}

// startFlush moves a buffer entry toward flash: optional read-modify-write
// fill for sub-slot writes, then batch dispatch.
func (d *Device) startFlush(e *bufEntry) {
	if e.flushing {
		return
	}
	e.flushing = true
	d.verCounter++
	e.version = d.verCounter
	d.lpnVer[e.lpn] = e.version
	d.buf.Detach(e)

	if !d.buf.Full(e) {
		if oldPPN, ok := d.ftl.Lookup(e.lpn); ok {
			// Partial overwrite of a mapped slot: read the rest first.
			d.stats.RMWReads++
			d.flashRead(oldPPN, d.unit, true, d.rmwDoneFn, e)
			return
		}
	}
	d.enqueueReady(e)
}

// enqueueReady queues a flush-ready entry. A full page's worth of ready
// slots dispatches immediately; a sub-page remainder waits for the
// gathering window (log-structured packing into a 16KB page on the
// conventional device).
func (d *Device) enqueueReady(e *bufEntry) {
	d.flushReady = append(d.flushReady, e)
	if len(d.flushReady) >= d.ftl.SlotsPerPage() {
		d.dispatchFlushes()
		return
	}
	d.armBatchWindow(d.cfg.FlushBatch)
}

func (d *Device) armBatchWindow(delay sim.Time) {
	if d.batchArmed {
		return
	}
	d.batchArmed = true
	d.eng.After(delay, d.batchWindowFn)
}

// dispatchFlushes packs ready entries into page programs. Full pages go
// out immediately; a sub-page remainder is given until its grace deadline
// (one FlushDelay) to fill up before it is programmed as-is.
func (d *Device) dispatchFlushes() {
	spp := d.ftl.SlotsPerPage()
	for len(d.flushReady) > 0 && d.progInFlight < len(d.units) {
		want := spp
		if want > len(d.flushReady) {
			now := d.eng.Now()
			if d.graceDeadline == 0 {
				patience := d.cfg.FlushDelay
				if patience < d.cfg.FlushBatch {
					patience = d.cfg.FlushBatch
				}
				d.graceDeadline = now + patience
				d.armBatchWindow(patience)
				return
			}
			if now < d.graceDeadline {
				d.armBatchWindow(d.graceDeadline - now)
				return
			}
			want = len(d.flushReady)
		}
		unit, ppn, count := d.allocateRun(want)
		if count == 0 {
			// No space anywhere: park everything for GC.
			d.stats.AllocStalls++
			d.gcWaiters = append(d.gcWaiters, d.flushReady...)
			clearEntries(d.flushReady)
			d.flushReady = d.flushReady[:0]
			d.startUrgentGC()
			return
		}
		batch := d.flushReady[:count]
		d.program(unit, ppn, batch)
		// Shift the remainder down so the backing array is reused
		// instead of sliding off its own storage.
		n := copy(d.flushReady, d.flushReady[count:])
		clearEntries(d.flushReady[n:])
		d.flushReady = d.flushReady[:n]
	}
	d.graceDeadline = 0
}

func clearEntries(s []*bufEntry) {
	for i := range s {
		s[i] = nil
	}
}

// program writes a batch of slots as one flash program: channel data-in
// transfer, then the array program, then per-slot commits. The batch is
// copied into the pooled job, so the caller's slice is free immediately.
func (d *Device) program(unit int, firstPPN int64, batch []*bufEntry) {
	d.maybeStartGC(unit)
	d.progInFlight++
	ch := d.channelOf(unit)
	bytes := len(batch) * d.unit
	j := d.getProgram()
	j.unit = unit
	j.firstPPN = firstPPN
	j.batch = append(j.batch[:0], batch...)
	_, xferEnd := ch.reserve(d.eng.Now(), ch.xferTime(bytes)+d.cfg.RemapCost)
	d.eng.AtArg(xferEnd, d.programXferFn, j)
}

func (d *Device) finishFlush(e *bufEntry, ppn int64) {
	if d.lpnVer[e.lpn] == e.version {
		d.ftl.Commit(e.lpn, ppn)
		delete(d.lpnVer, e.lpn)
	} else {
		// A newer write to the same slot is in flight; this copy is
		// stale the moment it lands.
		d.ftl.CommitDiscard(ppn)
	}
	d.buf.Release(e)
}

// admitWaiters drains stalled host writes while buffer space lasts.
func (d *Device) admitWaiters() {
	for len(d.bufWaiters) > 0 {
		pw := d.bufWaiters[0]
		if !d.buf.HasSpace(int64(pw.req.Len)) {
			return
		}
		n := copy(d.bufWaiters, d.bufWaiters[1:])
		d.bufWaiters[n] = nil
		d.bufWaiters = d.bufWaiters[:n]
		d.acceptWrite(pw)
	}
}

// allocateRun picks the next unit in round-robin order that can host a
// run of up to want consecutive slots.
func (d *Device) allocateRun(want int) (unit int, ppn int64, count int) {
	n := len(d.allocOrder)
	for i := 0; i < n; i++ {
		u := d.allocOrder[d.allocCursor%n]
		d.allocCursor++
		if p, c := d.ftl.AllocateRun(u, want, false); c > 0 {
			return u, p, c
		}
	}
	return 0, noPPN, 0
}

// allocate reserves a single slot (tests).
func (d *Device) allocate(gc bool) (unit int, ppn int64, ok bool) {
	if gc {
		panic("ssd: use AllocateRun directly for GC")
	}
	u, p, c := d.allocateRun(1)
	return u, p, c == 1
}

// --- Garbage collection ---

func (d *Device) maybeStartGC(unit int) {
	if d.ftl.GCRunning(unit) || d.ftl.FreeBlocks(unit) >= d.gcLow[unit] {
		return
	}
	d.startGC(unit)
}

// startUrgentGC kicks GC on every eligible unit when allocation failed
// outright.
func (d *Device) startUrgentGC() {
	for u := 0; u < len(d.units); u++ {
		if !d.ftl.GCRunning(u) {
			d.startGC(u)
		}
	}
}

func (d *Device) startGC(unit int) {
	d.ftl.SetGCRunning(unit, true)
	d.stats.GCRuns++
	if d.pr != nil {
		d.gcStart[unit] = d.eng.Now()
	}
	d.gcPass(unit)
}

// gcPass reclaims blocks until the high watermark is reached. Migrations
// proceed page by page so host operations interleave in the die queues.
func (d *Device) gcPass(unit int) {
	if d.ftl.FreeBlocks(unit) >= d.cfg.GCHighWater {
		d.ftl.SetGCRunning(unit, false)
		d.emitGC(unit)
		return
	}
	block, valid, ok := d.ftl.Victim(unit)
	if !ok {
		d.ftl.SetGCRunning(unit, false)
		d.emitGC(unit)
		return
	}
	d.migrate(unit, block, valid, 0)
}

// emitGC records one finished GC pass as a background trace event.
func (d *Device) emitGC(unit int) {
	if d.pr == nil {
		return
	}
	now := d.eng.Now()
	d.pr.Emit(d.gcTrack, "gc", d.gcStart[unit], now-d.gcStart[unit])
}

// migrate relocates the valid slots of a victim block, one source flash
// page at a time (slots that were written together share one array read),
// then erases the block. GC relocates strictly within its own unit: the
// reserve block guarantees space, since a victim has at most a block's
// worth of valid slots and at least one invalid one.
func (d *Device) migrate(unit, block int, valid []MigrationPage, i int) {
	if i >= len(valid) {
		d.stats.FlashErases++
		d.units[unit].Submit(&flash.Op{
			Kind: flash.OpErase,
			Done: func(sim.Time) {
				d.ftl.EraseDone(unit, block)
				d.retryGCWaiters()
				d.gcPass(unit)
			},
		})
		return
	}
	// Chunk: valid slots sharing the source flash page, still current.
	srcPage := d.ftl.PageOf(valid[i].PPN)
	j := i
	var chunk []MigrationPage
	for j < len(valid) && d.ftl.PageOf(valid[j].PPN) == srcPage {
		if d.ftl.StillCurrent(valid[j].LPN, valid[j].PPN) {
			chunk = append(chunk, valid[j])
		}
		j++
	}
	if len(chunk) == 0 {
		d.migrate(unit, block, valid, j)
		return
	}
	d.units[unit].Submit(&flash.Op{
		Kind:       flash.OpRead,
		Background: true,
		Done: func(sim.Time) {
			d.gcProgram(unit, chunk, func() {
				d.migrate(unit, block, valid, j)
			})
		},
	})
}

// gcProgram writes a chunk of migrated slots, packing runs into page
// programs.
func (d *Device) gcProgram(unit int, chunk []MigrationPage, done func()) {
	if len(chunk) == 0 {
		done()
		return
	}
	ppn, count := d.ftl.AllocateRun(unit, len(chunk), true)
	if count == 0 {
		// Cannot happen while the reserve invariant holds, but stay
		// robust: retry after erases elsewhere free space.
		d.eng.After(100*sim.Microsecond, func() { d.gcProgram(unit, chunk, done) })
		return
	}
	batch := chunk[:count]
	rest := chunk[count:]
	d.units[unit].Submit(&flash.Op{
		Kind: flash.OpProgram,
		Done: func(sim.Time) {
			for i, p := range batch {
				if d.ftl.StillCurrent(p.LPN, p.PPN) {
					d.stats.GCMigrations++
					d.ftl.Commit(p.LPN, ppn+int64(i))
				} else {
					d.ftl.CommitDiscard(ppn + int64(i))
				}
			}
			d.gcProgram(unit, rest, done)
		},
	})
}

// retryGCWaiters resumes flush jobs parked for space.
func (d *Device) retryGCWaiters() {
	if len(d.gcWaiters) == 0 {
		return
	}
	d.flushReady = append(d.flushReady, d.gcWaiters...)
	d.gcWaiters = nil
	d.dispatchFlushes()
}

// --- Preconditioning ---

// Precondition instantly maps the first fraction of the exported LPN
// space, as if the device had been filled once by sequential writes: the
// same blocks consumed, the same round-robin placement, the same
// allocation cursor, but no simulated time and no flash operations.
// fraction is clamped to [0, 1]; NaN counts as 0. The placement is a
// closed form the FTL resolves on lookup, so this costs O(blocks)
// however large the device. That form assumes a fresh device: calling
// Precondition after any allocation is a harness bug and panics.
func (d *Device) Precondition(fraction float64) {
	if d.allocCursor != 0 {
		panic(fmt.Sprintf("ssd: Precondition on a device that has already allocated (cursor=%d); precondition a fresh device",
			d.allocCursor))
	}
	if fraction < 0 || math.IsNaN(fraction) {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	n := int64(fraction * float64(d.ftl.ExportedPages()))
	d.allocCursor = d.ftl.precondition(d.allocOrder, n)
}
