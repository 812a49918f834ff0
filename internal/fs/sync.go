// Write-back and durability: the background flusher (dirty-ratio and
// age triggered, with write coalescing), the fsync state machine, the
// three journal commit protocols, and the log-structured segment
// cleaner. All child I/O issued here contends with foreground traffic
// on the same stack and device — which is the experiment: on a ULL
// device the barriers and commit writes, not the media, dominate fsync.
package fs

import (
	"sort"

	"repro/internal/cpu"
	"repro/internal/probe"
	"repro/internal/sim"
)

func (f *FS) writebackBatchSize() int {
	if f.cfg.WritebackBatch > 0 {
		return f.cfg.WritebackBatch
	}
	return DefaultWritebackBatch
}

func (f *FS) expireAfter() sim.Time {
	if f.cfg.DirtyExpire != 0 {
		return f.cfg.DirtyExpire
	}
	return DefaultDirtyExpire
}

func (f *FS) commitBytes() int {
	if f.cfg.CommitBytes > 0 {
		return f.cfg.CommitBytes
	}
	return DefaultCommitBytes
}

func (f *FS) segmentBytes() int64 {
	if f.cfg.SegmentBytes > 0 {
		return f.cfg.SegmentBytes
	}
	return DefaultSegmentBytes
}

func (f *FS) logUtil() float64 {
	u := f.cfg.LogUtilization
	if u == 0 {
		u = DefaultLogUtilization
	}
	if u < 0 {
		u = 0
	}
	// A cleaner at utilization 1 regenerates its own debt forever; cap
	// below the fixed point.
	if u > 0.95 {
		u = 0.95
	}
	return u
}

// --- background write-back ---

// maybeWriteback starts a background pass once the dirty pool crosses
// the high watermark. During an fsync the sync machinery owns
// writeback.
func (f *FS) maybeWriteback() {
	if f.wbActive || f.syncActive || f.nDirty < f.highDirty {
		return
	}
	f.startWritebackBatch()
}

// startWritebackBatch takes up to WritebackBatch oldest dirty pages,
// coalesces adjacent ones into single child writes, and issues them.
func (f *FS) startWritebackBatch() {
	limit := f.writebackBatchSize()
	f.wbPages = f.wbPages[:0]
	for len(f.wbPages) < limit && f.dirtyHead != nil {
		pg := f.dirtyPop()
		pg.writing = true
		f.wbPages = append(f.wbPages, pg)
	}
	if len(f.wbPages) == 0 {
		return
	}
	f.wbActive = true
	f.wbStart = f.eng.Now()
	f.stats.WritebackPages += uint64(len(f.wbPages))
	// Dirty order approximates write order; sorting by page index turns
	// neighboring dirtied pages into sequential extents. sort.Sort on a
	// pointer receiver (not sort.Slice) keeps the steady-state fsync path
	// allocation-free.
	f.wbSort.pages = f.wbPages
	sort.Sort(&f.wbSort)
	f.wbSort.pages = nil
	f.wbLeft = 0
	start, n := f.wbPages[0].idx, int64(1)
	for _, pg := range f.wbPages[1:] {
		if pg.idx == start+n {
			n++
			continue
		}
		f.flushExtent(start, n)
		start, n = pg.idx, 1
	}
	f.flushExtent(start, n)
}

// flushExtent issues one coalesced write-back extent to the child.
func (f *FS) flushExtent(startIdx, pages int64) {
	f.wbLeft++
	f.stats.WritebackWrites++
	bytes := pages * f.ps
	if f.cfg.Journal == LogStructured {
		f.noteLogBytes(bytes)
	}
	f.gate.submit(true, startIdx*f.ps, int(bytes), f.wbExtentFn)
}

// wbSorter orders a write-back batch by page index; a persistent
// sort.Interface field avoids the per-batch closure and interface
// allocations of sort.Slice.
type wbSorter struct{ pages []*page }

func (s *wbSorter) Len() int           { return len(s.pages) }
func (s *wbSorter) Less(i, j int) bool { return s.pages[i].idx < s.pages[j].idx }
func (s *wbSorter) Swap(i, j int)      { s.pages[i], s.pages[j] = s.pages[j], s.pages[i] }

func (f *FS) wbExtentDone() {
	f.wbLeft--
	if f.wbLeft == 0 {
		f.finishWritebackBatch()
	}
}

func (f *FS) finishWritebackBatch() {
	now := f.eng.Now()
	f.pr.Emit(f.wbTrack, "writeback", f.wbStart, now-f.wbStart)
	for _, pg := range f.wbPages {
		pg.writing = false
		if pg.redirty {
			// The host rewrote the page mid-flight: still dirty, fresh age.
			pg.redirty = false
			pg.dirtyAt = now
			f.dirtyAppend(pg)
		} else {
			pg.dirty = false
			f.nDirty--
			f.cleanPush(pg)
		}
	}
	f.wbPages = f.wbPages[:0]
	f.wbActive = false
	if f.syncActive && f.syncStage < 0 {
		f.syncData()
		return
	}
	if f.syncActive {
		return
	}
	if f.nDirty > f.lowDirty {
		f.startWritebackBatch()
		return
	}
	if f.dirtyHead != nil && now-f.dirtyHead.dirtyAt >= f.expireAfter() {
		f.startWritebackBatch()
		return
	}
	f.armExpire()
}

// armExpire schedules the age-based flush for the oldest dirty page.
func (f *FS) armExpire() {
	if f.cfg.DirtyExpire < 0 || f.expireArmed || f.wbActive || f.syncActive || f.dirtyHead == nil {
		return
	}
	f.expireArmed = true
	at := f.dirtyHead.dirtyAt + f.expireAfter()
	if now := f.eng.Now(); at < now {
		at = now
	}
	f.eng.At(at, f.expireFn)
}

func (f *FS) expireFire() {
	f.expireArmed = false
	if f.wbActive || f.syncActive || f.dirtyHead == nil {
		return
	}
	if f.eng.Now()-f.dirtyHead.dirtyAt >= f.expireAfter() {
		f.startWritebackBatch()
	} else {
		f.armExpire()
	}
}

// --- fsync ---

// Sync runs fsync(2): write back every dirty page, then commit under
// the configured journal mode, then barrier the device. Concurrent
// syncs queue and run one at a time.
//
//ullvet:noalloc bench=BenchmarkFSFsync
func (f *FS) Sync(done func()) {
	f.stats.Fsyncs++
	f.core.Pay(cpu.FnSyscall, f.costs.Syscall)
	f.core.Pay(cpu.FnExt4, f.costs.FsyncCall)
	if f.pr != nil {
		// One slot per queued sync, nil spans included, so the head of
		// this FIFO is always the active sync's span.
		f.syncSpans = append(f.syncSpans, f.pr.TakeSpan())
	}
	f.syncQ.Push(done)
	if f.syncActive {
		return
	}
	f.syncActive = true
	f.syncStage = -1
	f.syncData()
}

// syncData is the data phase: drain the dirty pool (a running
// background batch is awaited first — its completion re-enters here),
// then advance to the commit protocol.
func (f *FS) syncData() {
	if f.wbActive {
		return
	}
	if f.nDirty > 0 {
		f.startWritebackBatch()
		return
	}
	f.syncStage = 0
	f.syncAdvance()
}

// syncAdvance steps the commit protocol; each child I/O or barrier
// completion calls it again.
//
//ullvet:noalloc bench=BenchmarkFSFsync
func (f *FS) syncAdvance() {
	// Phase-attribute the active sync's span at each protocol edge: stage
	// 0 means the data drain just finished (writeback), later stages mean
	// the commit write or barrier that ran before them finished.
	sp := f.syncHeadSpan()
	now := f.eng.Now()
	switch f.cfg.Journal {
	case NoJournal:
		switch f.syncStage {
		case 0:
			sp.To(probe.PWriteback, now)
			f.syncStage = 1
			f.barrier(f.syncStepFn)
		default:
			sp.To(probe.PBarrier, now)
			f.syncFinish()
		}
	case OrderedJournal:
		// ext4 data=ordered: data is already down (the data phase), so
		// journal the metadata, barrier, write the commit record, and
		// barrier again so the commit is durable.
		switch f.syncStage {
		case 0:
			sp.To(probe.PWriteback, now)
			f.core.Pay(cpu.FnExt4, f.costs.JournalPrep)
			f.syncStage = 1
			f.jwrite(f.commitBytes(), f.syncStepFn)
		case 1:
			sp.To(probe.PJournal, now)
			f.syncStage = 2
			f.barrier(f.syncStepFn)
		case 2:
			sp.To(probe.PBarrier, now)
			f.syncStage = 3
			f.jwrite(f.commitBytes(), f.syncStepFn)
		case 3:
			sp.To(probe.PJournal, now)
			f.syncStage = 4
			f.barrier(f.syncStepFn)
		default:
			sp.To(probe.PBarrier, now)
			f.syncFinish()
		}
	default: // LogStructured
		// F2FS shape: append the node block, wait out any segment
		// cleaning the append forced, one barrier.
		switch f.syncStage {
		case 0:
			sp.To(probe.PWriteback, now)
			f.core.Pay(cpu.FnExt4, f.costs.JournalPrep)
			f.syncStage = 1
			f.logAppend(f.commitBytes(), f.syncStepFn)
		case 1:
			// Covers the node append and, on re-entry after a forced
			// cleaning wait, the wait itself.
			sp.To(probe.PJournal, now)
			if f.cleaning {
				f.syncWaitClean = true
				return
			}
			f.syncStage = 2
			f.barrier(f.syncStepFn)
		default:
			sp.To(probe.PBarrier, now)
			f.syncFinish()
		}
	}
}

// syncHeadSpan returns the active sync's span (nil when observability is
// off or the span was not carried in).
func (f *FS) syncHeadSpan() *probe.Span {
	if f.pr == nil || len(f.syncSpans) == 0 {
		return nil
	}
	return f.syncSpans[0]
}

func (f *FS) syncFinish() {
	if f.pr != nil && len(f.syncSpans) > 0 {
		copy(f.syncSpans, f.syncSpans[1:])
		f.syncSpans = f.syncSpans[:len(f.syncSpans)-1]
	}
	done := f.syncQ.Pop()
	if f.syncQ.Len() > 0 {
		done()
		f.syncStage = -1
		f.syncData()
		return
	}
	f.syncActive = false
	done()
	f.maybeWriteback()
	f.armExpire()
}

// --- journal / log plumbing ---

// jalloc carves n bytes out of the reserved journal/log area, wrapping
// at the end.
func (f *FS) jalloc(n int) int64 {
	if f.jcursor+int64(n) > f.journalLen {
		f.jcursor = 0
	}
	off := f.journalOff + f.jcursor
	f.jcursor += int64(n)
	return off
}

// jwrite writes one journal record.
func (f *FS) jwrite(n int, cb func()) {
	f.stats.JournalWrites++
	f.gate.submit(true, f.jalloc(n), n, cb)
}

// logAppend writes one node/metadata block into the log and accounts
// the appended bytes toward segment consumption.
func (f *FS) logAppend(n int, cb func()) {
	f.stats.JournalWrites++
	off := f.jalloc(n)
	f.gate.submit(true, off, n, cb)
	f.noteLogBytes(int64(n))
}

// barrier issues one device flush through the child stack.
func (f *FS) barrier(cb func()) {
	f.stats.Barriers++
	f.gate.flush(cb)
}

// --- log-structured segment cleaning ---

// noteLogBytes accounts appended bytes; every filled segment owes the
// cleaner its live fraction — at utilization u, reclaiming a segment
// copies u of it, and the copies are appends that consume log space in
// turn (the classic LFS cleaning amplification).
func (f *FS) noteLogBytes(n int64) {
	f.logBytes += n
	seg := f.segmentBytes()
	live := int64(f.logUtil() * float64(seg))
	for f.logBytes >= (f.segFilled+1)*seg {
		f.segFilled++
		f.cleanDebt += live
	}
	if f.cleanDebt > 0 && !f.cleaning {
		f.cleaning = true
		f.cleanStep()
	}
}

// cleanStep moves one chunk of live data: read it from the victim
// segment, append it at the log head. One chunk is in flight at a time;
// the traffic contends with everything else on the child.
func (f *FS) cleanStep() {
	if f.cleanDebt <= 0 {
		f.cleaning = false
		if f.syncWaitClean {
			f.syncWaitClean = false
			f.syncAdvance()
		}
		return
	}
	n := int64(cleanChunk)
	if n > f.cleanDebt {
		n = f.cleanDebt
	}
	f.cleanChunkN = int(n)
	if f.cleanCursor+n > f.journalLen {
		f.cleanCursor = 0
	}
	off := f.journalOff + f.cleanCursor
	f.cleanCursor += n
	f.clStart = f.eng.Now()
	f.gate.submit(false, off, int(n), f.cleanRdFn)
}

func (f *FS) cleanReadDone() {
	f.gate.submit(true, f.jalloc(f.cleanChunkN), f.cleanChunkN, f.cleanWrFn)
}

func (f *FS) cleanWriteDone() {
	f.pr.Emit(f.clTrack, "clean", f.clStart, f.eng.Now()-f.clStart)
	n := int64(f.cleanChunkN)
	f.cleanDebt -= n
	f.stats.CleanedBytes += n
	// A segment counts as reclaimed once its live share has actually
	// been copied out, not when the debt was incurred.
	f.cleanedAcc += n
	if live := int64(f.logUtil() * float64(f.segmentBytes())); live > 0 {
		for f.cleanedAcc >= live {
			f.cleanedAcc -= live
			f.stats.SegsCleaned++
		}
	}
	// The cleaner's own appends consume log space too.
	f.noteLogBytes(n)
	f.cleanStep()
}
