// Package fs models the host filesystem and page-cache tier that real
// applications sit behind — the layer whose relative cost explodes once
// the device underneath drops to Z-SSD latencies (the paper's core
// system-level finding, and the overhead catalog of the Tehrany et al.
// file-system survey): buffered reads that pay a memcpy on every hit and
// a block read plus a cache insert on every miss, write-back buffered
// writes absorbed by a dirty-page pool and flushed by a background
// writer, readahead for sequential streams, and fsync(2) with three
// journaling modes — none, ext4-style data=ordered commits (journal
// write, barrier flush, commit record, second flush), and an F2FS-style
// log-structured mode whose append segments must be cleaned under
// utilization pressure.
//
// The FS composes as a topology layer (core.FS) over any Target that
// can flush — a single stack, a striped volume, a tier — and is itself
// a Target plus a Syncer, so the unchanged workload engines drive it.
package fs

import (
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/probe"
	"repro/internal/sim"
)

// JournalMode selects the fsync commit protocol.
type JournalMode int

// The three modes.
const (
	// NoJournal issues a bare device flush: writeback plus one barrier,
	// no commit records (ext2-style, or a raw block device).
	NoJournal JournalMode = iota
	// OrderedJournal is ext4 data=ordered with barriers: data writeback,
	// journal record write, flush, commit record write, second flush.
	OrderedJournal
	// LogStructured is the F2FS shape: data and node blocks append into
	// segments and one barrier suffices, but filled segments must be
	// cleaned — live data copied out — and the cleaning bill grows with
	// utilization.
	LogStructured
)

func (m JournalMode) String() string {
	switch m {
	case NoJournal:
		return "none"
	case OrderedJournal:
		return "ordered"
	case LogStructured:
		return "log"
	default:
		return fmt.Sprintf("JournalMode(%d)", int(m))
	}
}

// Costs is the calibrated cost table of the filesystem/page-cache code
// paths. These are the host-software costs the paper's Section IV
// argument is about: fixed per-operation work that is noise behind a
// 100us flash read and a first-order latency component behind a 3us
// Z-NAND read.
type Costs struct {
	Syscall     cpu.Cost // read/write/fsync entry + exit
	Lookup      cpu.Cost // per-page radix-tree (xarray) lookup
	CopyPerPage cpu.Cost // per-page user<->page-cache memcpy (4KiB)
	Insert      cpu.Cost // per-page allocation + tree insert + LRU link
	FsyncCall   cpu.Cost // fsync dirty-list walk and writeback setup
	JournalPrep cpu.Cost // per-commit journal transaction preparation
}

// DefaultCosts returns the calibrated table.
func DefaultCosts() Costs {
	return Costs{
		Syscall:     cpu.Cost{Time: 120 * sim.Nanosecond, Loads: 60, Stores: 40},
		Lookup:      cpu.Cost{Time: 150 * sim.Nanosecond, Loads: 40, Stores: 6},
		CopyPerPage: cpu.Cost{Time: 420 * sim.Nanosecond, Loads: 256, Stores: 256},
		Insert:      cpu.Cost{Time: 500 * sim.Nanosecond, Loads: 120, Stores: 140},
		FsyncCall:   cpu.Cost{Time: 400 * sim.Nanosecond, Loads: 150, Stores: 60},
		JournalPrep: cpu.Cost{Time: 1800 * sim.Nanosecond, Loads: 420, Stores: 380},
	}
}

// Tuning defaults, applied where Config leaves the zero value.
const (
	DefaultPageSize       = 4096
	DefaultDirtyRatio     = 0.20
	DefaultDirtyExpire    = 5 * sim.Millisecond
	DefaultWritebackBatch = 64
	DefaultCommitBytes    = 4096
	DefaultJournalBytes   = 8 << 20
	DefaultLogBytes       = 32 << 20
	DefaultSegmentBytes   = 1 << 20
	DefaultLogUtilization = 0.5
	// cleanChunk is the unit of segment-cleaning I/O.
	cleanChunk = 64 << 10
)

// Config parameterizes the filesystem layer.
type Config struct {
	// PageSize is the cache page in bytes (0: 4096).
	PageSize int
	// CacheBytes is the page-cache capacity. Zero (or negative) disables
	// caching entirely — every read and write passes straight through,
	// O_DIRECT style. This is not a sentinel for a default: an FS with
	// no cache and NoJournal lowers to a bit-exact passthrough.
	CacheBytes int64
	// ReadaheadPages prefetches this many pages past a detected
	// sequential read stream (0: readahead off).
	ReadaheadPages int
	// DirtyRatio is the dirty-page fraction of the cache at which the
	// background flusher kicks in (0: 0.20); it drains to half the
	// threshold.
	DirtyRatio float64
	// DirtyExpire writes a dirty page back once it has aged this long
	// regardless of the ratio (0: 5ms of simulated time; <0 disables).
	DirtyExpire sim.Time
	// WritebackBatch caps the pages one background flusher pass takes
	// (0: 64). Adjacent pages in a batch coalesce into single writes.
	WritebackBatch int

	// Journal selects the fsync commit protocol.
	Journal JournalMode
	// JournalBytes reserves the journal (OrderedJournal) or log-segment
	// area (LogStructured) at the top of the child's capacity
	// (0: 8MiB ordered, 32MiB log). Ignored under NoJournal.
	JournalBytes int64
	// CommitBytes sizes one journal record / commit block / node block
	// (0: 4096).
	CommitBytes int
	// SegmentBytes is the LogStructured append-segment size (0: 1MiB).
	SegmentBytes int64
	// LogUtilization is the live fraction the cleaner must copy out of
	// every reclaimed segment (0: 0.5) — the classic LFS cleaning cost
	// dial: at 0.9, reclaiming one segment moves 0.9 segments of data.
	LogUtilization float64

	// Costs overrides the filesystem cost table; nil means the
	// calibrated defaults. A pointer carries presence, so a
	// deliberately-zero table is honored, never silently replaced.
	Costs *Costs
}

// Passthrough reports whether the config models no filesystem work at
// all — no cache, no journal — in which case the topology lowering
// skips the layer entirely and the child is used as-is (fsync on the
// composed system degenerates to a bare device flush).
func (c Config) Passthrough() bool {
	return c.CacheBytes <= 0 && c.Journal == NoJournal
}

// Backend is the downstream contract the FS drives: any Target that can
// also execute a durability barrier (every stack and volume can).
type Backend interface {
	Submit(write bool, offset int64, length int, done func())
	Flush(done func())
}

// Stats counts the filesystem layer's activity.
type Stats struct {
	Reads, Writes   uint64 // host operations
	PagesRead       uint64 // pages touched by reads
	PagesWritten    uint64 // pages touched by writes
	Hits, Misses    uint64 // page-cache read lookups
	Readaheads      uint64 // pages prefetched
	Inserted        uint64 // pages inserted into the cache
	Evicted         uint64 // clean pages evicted to make room
	InsertSkips     uint64 // fills dropped: no clean page to evict
	WriteThrough    uint64 // buffered writes forced straight down
	RMWReads        uint64 // partial-page fills read before overwrite
	DirtyPages      int64  // currently dirty (incl. writeback in flight)
	WritebackPages  uint64 // pages written back (background + fsync)
	WritebackWrites uint64 // coalesced child writes issued for writeback
	Fsyncs          uint64
	JournalWrites   uint64 // journal / commit / node blocks written
	Barriers        uint64 // device flushes issued
	SegsCleaned     uint64 // LogStructured: segments reclaimed
	CleanedBytes    int64  // LogStructured: live bytes copied by cleaning
}

// FS is a built filesystem layer: a Target + Syncer over one Backend.
type FS struct {
	eng   *sim.Engine
	core  *cpu.Core
	cfg   Config
	costs Costs

	ps       int64 // page size
	pages    int64 // cache capacity in pages; 0 = cache disabled
	exported int64

	gate gate

	// Page cache: the page index (page idx -> page id), the pages by
	// id, the clean LRU (evictable pages only), and the dirty FIFO
	// (oldest first).
	cache                sim.Index
	pageByID             []*page
	cleanHead, cleanTail *page
	dirtyHead, dirtyTail *page
	nCached, nDirty      int64
	highDirty, lowDirty  int64

	// Readahead stream detection.
	lastEnd int64
	streak  int
	raNext  int64

	// Background writeback.
	wbActive    bool
	wbPages     []*page
	wbSort      wbSorter
	wbLeft      int
	wbExtentFn  func()
	expireArmed bool
	expireFn    func()

	// Fsync machinery: one sync runs at a time, the rest queue.
	syncActive    bool
	syncStage     int
	syncWaitClean bool
	syncQ         sim.FIFO[func()]
	syncStepFn    func()

	// Journal / log cursors (child offsets inside the reserved area).
	journalOff, journalLen int64
	jcursor                int64

	// LogStructured cleaning state.
	logBytes    int64 // bytes appended to the log since mount
	segFilled   int64 // segments fully consumed so far
	cleanDebt   int64 // live bytes still to copy before new segments are free
	cleanedAcc  int64 // copied live bytes not yet credited as a reclaimed segment
	cleaning    bool
	cleanCursor int64
	cleanRdFn   func()
	cleanWrFn   func()
	cleanChunkN int

	freeOps     *fsOp
	freeFills   *fill
	fillIssueFn func(any) // bound once: issue a delayed page fill

	// Observability: foreground spans mark cache/journal phases; the
	// flusher and cleaner emit background trace events. syncSpans stays
	// aligned with syncQ (one entry per queued fsync, possibly nil) so
	// syncAdvance can mark the active sync's span. Nil probe = all off.
	pr        *probe.Probe
	wbTrack   string
	clTrack   string
	wbStart   sim.Time
	clStart   sim.Time
	syncSpans []*probe.Span

	stats Stats
}

// New builds a filesystem layer over dev. devBytes is the child's
// exported capacity; serialDev marks a child that serves one request at
// a time (a bare pvsync2 stack), which the FS serializes behind an
// internal gate — the cache absorbs the concurrency above it.
func New(eng *sim.Engine, core *cpu.Core, dev Backend, devBytes int64, serialDev bool, cfg Config) *FS {
	f := &FS{eng: eng, core: core, cfg: cfg}
	f.costs = DefaultCosts()
	if cfg.Costs != nil {
		f.costs = *cfg.Costs
	}
	f.ps = int64(cfg.PageSize)
	if f.ps <= 0 {
		f.ps = DefaultPageSize
	}
	if cfg.CacheBytes > 0 {
		f.pages = cfg.CacheBytes / f.ps
		if f.pages < 1 {
			panic("fs: cache smaller than one page")
		}
	}
	ratio := cfg.DirtyRatio
	if ratio <= 0 {
		ratio = DefaultDirtyRatio
	}
	f.highDirty = int64(ratio * float64(f.pages))
	if f.highDirty < 1 {
		f.highDirty = 1
	}
	f.lowDirty = f.highDirty / 2

	var jbytes int64
	switch cfg.Journal {
	case NoJournal:
	case OrderedJournal:
		jbytes = cfg.JournalBytes
		if jbytes <= 0 {
			jbytes = DefaultJournalBytes
		}
	case LogStructured:
		jbytes = cfg.JournalBytes
		if jbytes <= 0 {
			jbytes = DefaultLogBytes
		}
	default:
		panic(fmt.Sprintf("fs: unknown journal mode %d", int(cfg.Journal)))
	}
	if jbytes >= devBytes {
		panic("fs: journal area larger than the device")
	}
	f.exported = (devBytes - jbytes) / f.ps * f.ps
	if f.exported <= 0 {
		panic("fs: no exported capacity left under the journal area")
	}
	if n := f.exported / f.ps; f.pages > 0 && n > math.MaxInt32 {
		panic(fmt.Sprintf("fs: %d exported pages; the page cache indexes at most %d", n, math.MaxInt32))
	}
	f.journalOff = f.exported
	f.journalLen = devBytes - f.exported

	f.gate = gate{dev: dev, serial: serialDev}
	f.wbExtentFn = f.wbExtentDone
	f.expireFn = f.expireFire
	f.syncStepFn = f.syncAdvance
	f.cleanRdFn = f.cleanReadDone
	f.cleanWrFn = f.cleanWriteDone
	f.fillIssueFn = func(a any) {
		fl := a.(*fill)
		if fl.op != nil {
			f.pr.SetSpan(fl.op.span)
		}
		f.gate.submit(false, fl.idx*f.ps, int(f.ps), fl.fn)
	}
	if f.pr = probe.Get(eng); f.pr != nil {
		base := f.pr.Name("fs")
		f.wbTrack = base + "/writeback"
		f.clTrack = base + "/cleaner"
		f.gate.pr = f.pr
	}
	return f
}

// DirtyRatio reports the dirty fraction of the cache (0 when uncached);
// a time-series gauge for the sampler.
func (f *FS) DirtyRatio() float64 {
	if f.pages == 0 {
		return 0
	}
	return float64(f.nDirty) / float64(f.pages)
}

// CacheHitRate reports the cumulative hit fraction of read lookups.
func (f *FS) CacheHitRate() float64 {
	t := f.stats.Hits + f.stats.Misses
	if t == 0 {
		return 0
	}
	return float64(f.stats.Hits) / float64(t)
}

// ExportedBytes reports the host-visible capacity: the child's, minus
// the reserved journal/log area, page-aligned.
func (f *FS) ExportedBytes() int64 { return f.exported }

// PageSize reports the cache page size in bytes.
func (f *FS) PageSize() int64 { return f.ps }

// CachePages reports the cache capacity in pages (0: cache disabled).
func (f *FS) CachePages() int64 { return f.pages }

// Stats snapshots the layer's counters.
func (f *FS) Stats() Stats {
	s := f.stats
	s.DirtyPages = f.nDirty
	return s
}

// fsOp joins one host operation's outstanding pieces: the syscall-side
// delay plus any child I/Os it must wait for, plus a tail — the
// post-I/O host work (page insert, copy-to-user) that runs only after
// the block reads land. Pooled; fn is bound once.
type fsOp struct {
	f    *FS
	left int
	tail sim.Time
	done func()
	span *probe.Span
	fn   func()
	next *fsOp
}

func (f *FS) getOp(done func()) *fsOp {
	op := f.freeOps
	if op == nil {
		op = &fsOp{f: f}
		op.fn = func() { op.f.opStep(op) }
	} else {
		f.freeOps = op.next
		op.next = nil
	}
	op.left = 0
	op.tail = 0
	op.done = done
	return op
}

func (f *FS) opStep(op *fsOp) {
	op.left--
	if op.left > 0 {
		return
	}
	if op.tail > 0 {
		// Everything landed; the post-I/O host work runs now.
		t := op.tail
		op.tail = 0
		op.left = 1
		f.eng.After(t, op.fn)
		return
	}
	done := op.done
	op.done = nil
	op.span = nil
	op.next = f.freeOps
	f.freeOps = op
	done()
}

// fill is one in-flight page read destined for the cache (a read miss,
// a readahead, or a read-modify-write fill). Pooled; fn is bound once.
type fill struct {
	f     *FS
	idx   int64
	dirty bool // RMW: mark the filled page dirty
	op    *fsOp
	fn    func()
	next  *fill
}

func (f *FS) getFill(idx int64, dirty bool, op *fsOp) *fill {
	fl := f.freeFills
	if fl == nil {
		fl = &fill{f: f}
		fl.fn = func() { fl.f.fillDone(fl) }
	} else {
		f.freeFills = fl.next
		fl.next = nil
	}
	fl.idx = idx
	fl.dirty = dirty
	fl.op = op
	return fl
}
