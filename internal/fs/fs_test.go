package fs

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// fakeDev is a deterministic Backend: fixed read/write/flush latencies,
// an op log for ordering assertions, and an optional serial guard.
type fakeDev struct {
	eng                         *sim.Engine
	readLat, writeLat, flushLat sim.Time
	serialGuard                 bool
	inflight                    int
	log                         []string
}

func (d *fakeDev) begin() {
	if d.serialGuard && d.inflight > 0 {
		panic("fakeDev: overlapping request on a serial backend")
	}
	d.inflight++
}

func (d *fakeDev) end(done func()) func() {
	return func() {
		d.inflight--
		done()
	}
}

func (d *fakeDev) Submit(write bool, off int64, n int, done func()) {
	d.begin()
	op, lat := "R", d.readLat
	if write {
		op, lat = "W", d.writeLat
	}
	d.log = append(d.log, fmt.Sprintf("%s %d+%d", op, off, n))
	d.eng.After(lat, d.end(done))
}

func (d *fakeDev) Flush(done func()) {
	d.begin()
	d.log = append(d.log, "F")
	d.eng.After(d.flushLat, d.end(done))
}

const testDevBytes = 1 << 20 // 1MiB fake device

func newTestFS(t *testing.T, cfg Config, serial bool) (*FS, *fakeDev, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	dev := &fakeDev{
		eng:         eng,
		readLat:     10 * sim.Microsecond,
		writeLat:    12 * sim.Microsecond,
		flushLat:    50 * sim.Microsecond,
		serialGuard: serial,
	}
	f := New(eng, cpu.NewCore(), dev, testDevBytes, serial, cfg)
	return f, dev, eng
}

func TestPassthroughConfig(t *testing.T) {
	if !(Config{}).Passthrough() {
		t.Error("zero config must be a passthrough")
	}
	if (Config{CacheBytes: 1 << 20}).Passthrough() {
		t.Error("cache enabled is not a passthrough")
	}
	if (Config{Journal: OrderedJournal}).Passthrough() {
		t.Error("journaled fsync is not a passthrough")
	}
}

func TestJournalModeString(t *testing.T) {
	for m, want := range map[JournalMode]string{
		NoJournal: "none", OrderedJournal: "ordered", LogStructured: "log",
		JournalMode(9): "JournalMode(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("JournalMode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestExportedReservesJournalArea(t *testing.T) {
	f, _, _ := newTestFS(t, Config{CacheBytes: 64 << 10}, false)
	if f.ExportedBytes() != testDevBytes {
		t.Errorf("no-journal exported = %d, want %d", f.ExportedBytes(), testDevBytes)
	}
	f2, _, _ := newTestFS(t, Config{CacheBytes: 64 << 10, Journal: OrderedJournal, JournalBytes: 128 << 10}, false)
	if want := int64(testDevBytes - 128<<10); f2.ExportedBytes() != want {
		t.Errorf("ordered exported = %d, want %d", f2.ExportedBytes(), want)
	}
}

// TestReadHitMiss pins the cache contract: the first read of a page
// misses (one child page read + insert), the second hits and completes
// in pure host-software time with no child I/O.
func TestReadHitMiss(t *testing.T) {
	f, dev, eng := newTestFS(t, Config{CacheBytes: 64 << 10}, false)
	var t1, t2 sim.Time
	f.Submit(false, 4096, 4096, func() { t1 = eng.Now() })
	eng.Run()
	if len(dev.log) != 1 || dev.log[0] != "R 4096+4096" {
		t.Fatalf("miss did not read the page: %v", dev.log)
	}
	start := eng.Now()
	f.Submit(false, 4096, 4096, func() { t2 = eng.Now() - start })
	eng.Run()
	if len(dev.log) != 1 {
		t.Fatalf("hit touched the device: %v", dev.log)
	}
	c := DefaultCosts()
	wantHit := c.Syscall.Time + c.Lookup.Time + c.CopyPerPage.Time
	if t2 != wantHit {
		t.Errorf("hit latency = %v, want %v (syscall+lookup+copy)", t2, wantHit)
	}
	if t1 <= t2 {
		t.Errorf("miss (%v) not slower than hit (%v)", t1, t2)
	}
	s := f.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserted != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 insert", s)
	}
}

// TestBufferedWriteAbsorbed: a full-page buffered write completes in
// memcpy time, touches no device, and leaves the page dirty.
func TestBufferedWriteAbsorbed(t *testing.T) {
	f, dev, eng := newTestFS(t, Config{CacheBytes: 64 << 10, DirtyExpire: -1}, false)
	done := false
	f.Submit(true, 0, 4096, func() { done = true })
	end := eng.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if len(dev.log) != 0 {
		t.Fatalf("absorbed write touched the device: %v", dev.log)
	}
	c := DefaultCosts()
	want := c.Syscall.Time + c.Lookup.Time + c.CopyPerPage.Time + c.Insert.Time
	if end != want {
		t.Errorf("buffered write latency = %v, want %v", end, want)
	}
	if s := f.Stats(); s.DirtyPages != 1 {
		t.Errorf("dirty pages = %d, want 1", s.DirtyPages)
	}
}

// TestPartialWriteReadsFirst: a sub-page write to an uncached page
// read-modify-writes — the child read happens before completion.
func TestPartialWriteReadsFirst(t *testing.T) {
	f, dev, eng := newTestFS(t, Config{CacheBytes: 64 << 10, DirtyExpire: -1}, false)
	f.Submit(true, 512, 1024, func() {})
	eng.Run()
	if len(dev.log) != 1 || dev.log[0] != "R 0+4096" {
		t.Fatalf("partial write did not RMW: %v", dev.log)
	}
	if s := f.Stats(); s.RMWReads != 1 || s.DirtyPages != 1 {
		t.Errorf("stats = %+v, want 1 RMW read and 1 dirty page", s)
	}
}

// TestWritebackThresholdAndCoalescing: crossing the dirty high
// watermark starts the background flusher, which coalesces adjacent
// dirty pages into fewer, larger child writes and drains to the low
// watermark.
func TestWritebackThresholdAndCoalescing(t *testing.T) {
	// 16-page cache, high watermark at 8 pages, batch 8.
	f, dev, eng := newTestFS(t, Config{
		CacheBytes: 16 * 4096, DirtyRatio: 0.5, WritebackBatch: 8,
		DirtyExpire: -1,
	}, false)
	for i := 0; i < 7; i++ {
		f.Submit(true, int64(i)*4096, 4096, func() {})
	}
	eng.Run()
	if len(dev.log) != 0 {
		t.Fatalf("flusher ran below the watermark: %v", dev.log)
	}
	f.Submit(true, 7*4096, 4096, func() {})
	eng.Run()
	s := f.Stats()
	if s.WritebackPages != 8 {
		t.Fatalf("writeback pages = %d, want 8", s.WritebackPages)
	}
	// All 8 pages are adjacent: one coalesced 32KiB write.
	if s.WritebackWrites != 1 || len(dev.log) != 1 || dev.log[0] != "W 0+32768" {
		t.Fatalf("coalescing broken: writes=%d log=%v", s.WritebackWrites, dev.log)
	}
	if s.DirtyPages != 0 {
		t.Errorf("dirty pages after drain = %d, want 0", s.DirtyPages)
	}
}

// TestDirtyExpire: a lone dirty page is written back once it ages past
// DirtyExpire even though the ratio never trips.
func TestDirtyExpire(t *testing.T) {
	f, dev, eng := newTestFS(t, Config{
		CacheBytes: 64 << 10, DirtyExpire: 1 * sim.Millisecond,
	}, false)
	f.Submit(true, 0, 4096, func() {})
	end := eng.Run()
	if len(dev.log) != 1 {
		t.Fatalf("expired page not written back: %v", dev.log)
	}
	if end < 1*sim.Millisecond {
		t.Errorf("writeback at %v, before the 1ms age threshold", end)
	}
	if s := f.Stats(); s.DirtyPages != 0 {
		t.Errorf("dirty pages = %d, want 0", s.DirtyPages)
	}
}

// syncOrder runs a buffered write + fsync under the given mode and
// returns the child op log.
func syncOrder(t *testing.T, mode JournalMode) ([]string, Stats) {
	t.Helper()
	f, dev, eng := newTestFS(t, Config{
		CacheBytes: 64 << 10, Journal: mode, JournalBytes: 256 << 10,
		DirtyExpire: -1,
	}, false)
	f.Submit(true, 0, 4096, func() {})
	eng.Run()
	synced := false
	f.Sync(func() { synced = true })
	eng.Run()
	if !synced {
		t.Fatalf("%v fsync never completed", mode)
	}
	return dev.log, f.Stats()
}

// TestFsyncNoJournal: writeback then exactly one barrier.
func TestFsyncNoJournal(t *testing.T) {
	log, s := syncOrder(t, NoJournal)
	want := []string{"W 0+4096", "F"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("op order = %v, want %v", log, want)
	}
	if s.Barriers != 1 || s.JournalWrites != 0 {
		t.Errorf("stats = %+v, want 1 barrier, 0 journal writes", s)
	}
}

// TestFsyncOrdered pins the ext4 data=ordered sequence: data writeback,
// journal record, barrier, commit record, second barrier.
func TestFsyncOrdered(t *testing.T) {
	log, s := syncOrder(t, OrderedJournal)
	exported := int64(testDevBytes - 256<<10)
	want := []string{
		"W 0+4096",
		fmt.Sprintf("W %d+4096", exported),
		"F",
		fmt.Sprintf("W %d+4096", exported+4096),
		"F",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("op order = %v, want %v", log, want)
	}
	if s.Barriers != 2 || s.JournalWrites != 2 {
		t.Errorf("stats = %+v, want 2 barriers, 2 journal writes", s)
	}
}

// TestFsyncLogStructured: node append then one barrier.
func TestFsyncLogStructured(t *testing.T) {
	log, s := syncOrder(t, LogStructured)
	exported := int64(testDevBytes - 256<<10)
	want := []string{
		"W 0+4096",
		fmt.Sprintf("W %d+4096", exported),
		"F",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("op order = %v, want %v", log, want)
	}
	if s.Barriers != 1 || s.JournalWrites != 1 {
		t.Errorf("stats = %+v, want 1 barrier, 1 journal write", s)
	}
}

// TestLogCleaningUnderPressure: tiny segments and high utilization make
// appends owe cleaning work, and the cleaner's copies show up as child
// traffic before the fsync barrier lands.
func TestLogCleaningUnderPressure(t *testing.T) {
	f, dev, eng := newTestFS(t, Config{
		CacheBytes: 256 << 10, Journal: LogStructured,
		JournalBytes: 256 << 10, SegmentBytes: 16 << 10, LogUtilization: 0.5,
		DirtyRatio: 0.9, DirtyExpire: -1,
	}, false)
	// Dirty 32 pages (128KiB) — 8 segments of appends at writeback time.
	for i := 0; i < 32; i++ {
		f.Submit(true, int64(i)*4096, 4096, func() {})
	}
	eng.Run()
	synced := false
	f.Sync(func() { synced = true })
	eng.Run()
	if !synced {
		t.Fatal("fsync never completed")
	}
	s := f.Stats()
	if s.SegsCleaned == 0 || s.CleanedBytes == 0 {
		t.Fatalf("no cleaning under pressure: %+v", s)
	}
	// The barrier must be the last child op: cleaning completed first.
	if dev.log[len(dev.log)-1] != "F" {
		t.Errorf("barrier not last: %v", dev.log[len(dev.log)-5:])
	}
}

// TestSerialGate: over a strictly serial child every FS-generated I/O
// (misses, writeback, journal, barriers) is serialized; the guard
// panics on overlap.
func TestSerialGate(t *testing.T) {
	f, _, eng := newTestFS(t, Config{
		CacheBytes: 32 << 10, Journal: OrderedJournal, JournalBytes: 64 << 10,
		DirtyRatio: 0.3, DirtyExpire: -1,
	}, true)
	// Concurrent misses on distinct pages.
	for i := 0; i < 4; i++ {
		f.Submit(false, int64(i)*4096, 4096, func() {})
	}
	// Concurrent buffered writes that trip the flusher.
	for i := 4; i < 8; i++ {
		f.Submit(true, int64(i)*4096, 4096, func() {})
	}
	synced := false
	f.Sync(func() { synced = true })
	eng.Run()
	if !synced {
		t.Fatal("fsync never completed")
	}
}

// TestReadahead: a sequential stream prefetches ahead, and the
// prefetched pages serve later reads from the cache.
func TestReadahead(t *testing.T) {
	f, dev, eng := newTestFS(t, Config{CacheBytes: 256 << 10, ReadaheadPages: 8}, false)
	for i := 0; i < 4; i++ {
		f.Submit(false, int64(i)*4096, 4096, func() {})
		eng.Run()
	}
	s := f.Stats()
	if s.Readaheads == 0 {
		t.Fatalf("sequential stream prefetched nothing: %+v", s)
	}
	n := len(dev.log)
	f.Submit(false, 4*4096, 4096, func() {})
	eng.Run()
	// The read itself must be a hit (prefetched); extending the
	// readahead window may legitimately add new prefetch reads.
	for _, op := range dev.log[n:] {
		if op == "R 16384+4096" {
			t.Errorf("read of a prefetched page touched the device: %v", dev.log[n:])
		}
	}
	if f.Stats().Hits == 0 {
		t.Error("prefetched page did not hit")
	}
}

// TestEvictionLRU: a cache at capacity evicts the coldest clean page.
func TestEvictionLRU(t *testing.T) {
	f, _, eng := newTestFS(t, Config{CacheBytes: 4 * 4096}, false)
	for i := 0; i < 4; i++ {
		f.Submit(false, int64(i)*4096, 4096, func() {})
		eng.Run()
	}
	// Touch page 0 so page 1 is coldest, then fault page 4.
	f.Submit(false, 0, 4096, func() {})
	eng.Run()
	f.Submit(false, 4*4096, 4096, func() {})
	eng.Run()
	if s := f.Stats(); s.Evicted != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evicted)
	}
	// Page 0 must still hit; page 1 must miss.
	h := f.Stats().Hits
	f.Submit(false, 0, 4096, func() {})
	eng.Run()
	if f.Stats().Hits != h+1 {
		t.Error("recently touched page was evicted")
	}
	m := f.Stats().Misses
	f.Submit(false, 1*4096, 4096, func() {})
	eng.Run()
	if f.Stats().Misses != m+1 {
		t.Error("coldest page survived eviction")
	}
}

// TestNoCacheDirectPassthrough: CacheBytes 0 with a journal still
// passes data I/O straight through (O_DIRECT), while fsync runs the
// commit protocol.
func TestNoCacheDirectPassthrough(t *testing.T) {
	f, dev, eng := newTestFS(t, Config{Journal: OrderedJournal, JournalBytes: 64 << 10}, false)
	f.Submit(true, 0, 4096, func() {})
	eng.Run()
	if len(dev.log) != 1 || dev.log[0] != "W 0+4096" {
		t.Fatalf("direct write altered: %v", dev.log)
	}
	f.Sync(func() {})
	eng.Run()
	if s := f.Stats(); s.Barriers != 2 || s.JournalWrites != 2 {
		t.Errorf("journaled fsync without cache: %+v", s)
	}
}

// TestConcurrentSyncsSerialize: overlapping Sync calls queue and each
// completes.
func TestConcurrentSyncsSerialize(t *testing.T) {
	f, _, eng := newTestFS(t, Config{
		CacheBytes: 64 << 10, Journal: OrderedJournal, JournalBytes: 64 << 10,
	}, false)
	f.Submit(true, 0, 4096, func() {})
	completed := 0
	f.Sync(func() { completed++ })
	f.Sync(func() { completed++ })
	eng.Run()
	if completed != 2 {
		t.Fatalf("completed = %d, want 2", completed)
	}
	if s := f.Stats(); s.Fsyncs != 2 || s.Barriers != 4 {
		t.Errorf("stats = %+v, want 2 fsyncs and 4 barriers", s)
	}
}

// TestDeterminism: an identical op sequence produces identical stats
// and identical virtual end time.
func TestDeterminism(t *testing.T) {
	runOnce := func() (Stats, sim.Time) {
		f, _, eng := newTestFS(t, Config{
			CacheBytes: 32 << 10, Journal: LogStructured, JournalBytes: 128 << 10,
			SegmentBytes: 16 << 10, ReadaheadPages: 4, DirtyRatio: 0.3,
		}, false)
		for i := 0; i < 24; i++ {
			f.Submit(i%3 != 0, int64(i%12)*4096, 4096, func() {})
			if i%8 == 7 {
				f.Sync(func() {})
			}
		}
		end := eng.Run()
		return f.Stats(), end
	}
	s1, e1 := runOnce()
	s2, e2 := runOnce()
	if s1 != s2 || e1 != e2 {
		t.Fatalf("nondeterministic: %+v @%v vs %+v @%v", s1, e1, s2, e2)
	}
}

// TestReadaheadNewStreamResets: the covered-window mark belongs to one
// stream — a second sequential stream at lower offsets must prefetch
// again rather than being clamped by the first stream's window.
func TestReadaheadNewStreamResets(t *testing.T) {
	f, _, eng := newTestFS(t, Config{CacheBytes: 512 << 10, ReadaheadPages: 8}, false)
	// Stream A, high offsets: establishes a readahead window up there.
	for i := 0; i < 4; i++ {
		f.Submit(false, int64(64+i)*4096, 4096, func() {})
		eng.Run()
	}
	ra := f.Stats().Readaheads
	if ra == 0 {
		t.Fatal("stream A never prefetched")
	}
	// Stream B, from the start: must prefetch on its own.
	for i := 0; i < 4; i++ {
		f.Submit(false, int64(i)*4096, 4096, func() {})
		eng.Run()
	}
	if f.Stats().Readaheads <= ra {
		t.Fatalf("stream B never prefetched (stuck at %d readaheads)", ra)
	}
}

// The page-cache index holds page numbers below MaxInt32, so a cached FS
// must refuse a backend exporting more pages than that, as NewFTL
// refuses a geometry with too many mapping slots. At the limit the top
// page caches like any other; an uncached FS never indexes pages.
func TestNewRejectsTooManyPages(t *testing.T) {
	const ps = DefaultPageSize
	limit := int64(math.MaxInt32) * ps
	build := func(devBytes int64, cfg Config) (f *FS, eng *sim.Engine, panicked any) {
		defer func() { panicked = recover() }()
		eng = sim.NewEngine()
		dev := &fakeDev{eng: eng, readLat: sim.Microsecond}
		return New(eng, cpu.NewCore(), dev, devBytes, false, cfg), eng, nil
	}
	cached := Config{CacheBytes: 64 * ps}
	if _, _, p := build(limit+ps, cached); p == nil {
		t.Fatal("a cached FS over MaxInt32+1 exported pages was built")
	}
	if _, _, p := build(limit+ps, Config{}); p != nil {
		t.Fatalf("an uncached FS over MaxInt32+1 pages panicked: %v", p)
	}
	f, eng, p := build(limit, cached)
	if p != nil {
		t.Fatalf("a cached FS over MaxInt32 exported pages panicked: %v", p)
	}
	top := f.ExportedBytes() - ps
	for i := 0; i < 2; i++ {
		f.Submit(false, top, ps, func() {})
		eng.Run()
	}
	if s := f.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("top page: %d misses, %d hits; want 1 and 1", s.Misses, s.Hits)
	}
}
