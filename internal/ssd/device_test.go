package ssd

import (
	"testing"

	"repro/internal/sim"
)

// smallZSSD returns a reduced ULL config for fast tests.
func smallZSSD() Config {
	cfg := ZSSD()
	cfg.Channels = 4
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.PagesPerBlock = 16
	cfg.BlocksPerUnit = 16
	return cfg
}

func smallNVMe() Config {
	cfg := NVMe750()
	cfg.Channels = 4
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.PagesPerBlock = 16
	cfg.BlocksPerUnit = 16
	return cfg
}

// runOne submits a single request and returns its completion latency.
func runOne(eng *sim.Engine, dev *Device, write bool, off int64, n int) sim.Time {
	start := eng.Now()
	var lat sim.Time
	dev.Submit(&Request{Write: write, Offset: off, Len: n, Done: func(end sim.Time) {
		lat = end - start
	}})
	eng.Run()
	return lat
}

func TestDeviceWriteCompletesFromBuffer(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallZSSD(), eng)
	lat := runOne(eng, dev, true, 0, 4096)
	if lat <= 0 {
		t.Fatal("write did not complete")
	}
	// Buffered completion must be far below tPROG (100us).
	if lat > 30*sim.Microsecond {
		t.Fatalf("buffered write latency %v, want well below tPROG", lat)
	}
	if dev.Stats().HostWrites != 1 {
		t.Fatalf("HostWrites = %d", dev.Stats().HostWrites)
	}
	// The flush happened in the background.
	if dev.Stats().FlashPrograms != 2 { // 4KB = 2 Z-NAND pages
		t.Fatalf("FlashPrograms = %d, want 2", dev.Stats().FlashPrograms)
	}
}

func TestDeviceReadAfterWriteHitsFlash(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallZSSD()
	cfg.ReadCachePages = 0 // force media reads
	dev := NewDevice(cfg, eng)
	runOne(eng, dev, true, 0, 4096)
	lat := runOne(eng, dev, false, 0, 4096)
	if lat <= 0 {
		t.Fatal("read did not complete")
	}
	if dev.Stats().FlashReads < 2 {
		t.Fatalf("FlashReads = %d, want 2 (split across the pair)", dev.Stats().FlashReads)
	}
	// Read of flash media must include tR (3us) and overheads.
	if lat < 5*sim.Microsecond || lat > 40*sim.Microsecond {
		t.Fatalf("flash read latency %v outside plausible ULL window", lat)
	}
}

func TestDeviceReadFromWriteBuffer(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallNVMe()
	dev := NewDevice(cfg, eng)
	var writeDone, readLat sim.Time
	dev.Submit(&Request{Write: true, Offset: 0, Len: 4096, Done: func(end sim.Time) { writeDone = end }})
	// Stop while the program (700us) is still in flight: the data must
	// be served from the DRAM buffer, not the media.
	eng.RunUntil(40 * sim.Microsecond)
	if writeDone == 0 {
		t.Fatal("write not acknowledged")
	}
	rdStart := eng.Now()
	dev.Submit(&Request{Offset: 0, Len: 4096, Done: func(end sim.Time) { readLat = end - rdStart }})
	eng.RunUntil(100 * sim.Microsecond)
	if readLat == 0 {
		t.Fatal("read not completed")
	}
	if dev.Stats().BufferHits != 1 {
		t.Fatalf("BufferHits = %d, want 1", dev.Stats().BufferHits)
	}
	// Buffer hit must avoid the 60us tR entirely.
	if readLat > 30*sim.Microsecond {
		t.Fatalf("buffer-hit read took %v", readLat)
	}
}

func TestDeviceZeroFillRead(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallZSSD(), eng)
	runOne(eng, dev, false, 8192, 4096)
	if dev.Stats().ZeroFills == 0 {
		t.Fatal("read of unwritten page did not zero-fill")
	}
	if dev.Stats().FlashReads != 0 {
		t.Fatal("zero-fill read touched flash")
	}
}

func TestDeviceOutOfBoundsPanics(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallZSSD(), eng)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds submit did not panic")
		}
	}()
	dev.Submit(&Request{Offset: dev.ExportedBytes(), Len: 4096, Done: func(sim.Time) {}})
}

func TestDeviceNoRMWOnSlotAlignedWrite(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallNVMe() // 4KB mapping slots on 16KB pages
	dev := NewDevice(cfg, eng)
	runOne(eng, dev, true, 0, 16384)
	runOne(eng, dev, true, 0, 4096) // slot-aligned overwrite: log-structured, no RMW
	if dev.Stats().RMWReads != 0 {
		t.Fatalf("slot-aligned writes triggered %d RMWs", dev.Stats().RMWReads)
	}
}

func TestDeviceRMWOnSubSlotOverwrite(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallNVMe()
	dev := NewDevice(cfg, eng)
	// Map the slot, then overwrite only part of it.
	runOne(eng, dev, true, 0, 4096)
	runOne(eng, dev, true, 0, 1024)
	if dev.Stats().RMWReads != 1 {
		t.Fatalf("RMWReads = %d, want 1", dev.Stats().RMWReads)
	}
}

func TestDeviceNoRMWOnUnmappedPartial(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallNVMe(), eng)
	// Sub-slot write to a never-mapped slot: missing bytes are zeros.
	runOne(eng, dev, true, 0, 1024)
	if dev.Stats().RMWReads != 0 {
		t.Fatalf("RMWReads = %d, want 0", dev.Stats().RMWReads)
	}
}

func TestDeviceProgramBatching(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallNVMe() // 4 slots per 16KB page
	dev := NewDevice(cfg, eng)
	// A 16KB write produces 4 slots that must pack into one program.
	runOne(eng, dev, true, 0, 16384)
	st := dev.Stats()
	if st.SlotsFlushed != 4 {
		t.Fatalf("SlotsFlushed = %d, want 4", st.SlotsFlushed)
	}
	if st.FlashPrograms != 1 {
		t.Fatalf("FlashPrograms = %d, want 1 (batched)", st.FlashPrograms)
	}
}

func TestDeviceSequentialReadOnePageRead(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallNVMe()
	cfg.ReadCachePages = 0
	cfg.PrefetchPages = 0
	dev := NewDevice(cfg, eng)
	dev.Precondition(0.5)
	// A 16KB read of sequentially written slots shares one array read.
	runOne(eng, dev, false, 0, 16384)
	if got := dev.Stats().FlashReads; got != 1 {
		t.Fatalf("FlashReads = %d, want 1 (page-grouped)", got)
	}
}

func TestDeviceSequentialPrefetch(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallNVMe()
	dev := NewDevice(cfg, eng)
	dev.Precondition(0.5)
	// Sequential reads: after the stream is detected, later reads hit the
	// cache.
	for i := 0; i < 8; i++ {
		runOne(eng, dev, false, int64(i)*16384, 16384)
	}
	if dev.Stats().Prefetches == 0 {
		t.Fatal("sequential stream triggered no prefetch")
	}
	if dev.Stats().CacheHits == 0 {
		t.Fatal("prefetched pages produced no cache hits")
	}
}

func TestDeviceRandomReadsNoPrefetch(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallNVMe(), eng)
	dev.Precondition(0.5)
	offs := []int64{0, 5, 2, 9, 1, 7, 3, 8}
	for _, o := range offs {
		runOne(eng, dev, false, o*16384, 16384)
	}
	if dev.Stats().Prefetches != 0 {
		t.Fatalf("random reads triggered %d prefetches", dev.Stats().Prefetches)
	}
}

func TestDevicePrecondition(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallZSSD(), eng)
	dev.Precondition(1.0)
	f := dev.FTL()
	for lpn := int64(0); lpn < f.ExportedPages(); lpn++ {
		if _, ok := f.Lookup(lpn); !ok {
			t.Fatalf("LPN %d unmapped after full precondition", lpn)
		}
	}
	// Preconditioning consumes no simulated time and issues no flash ops.
	if eng.Now() != 0 {
		t.Fatal("precondition advanced the clock")
	}
	if dev.Stats().FlashPrograms != 0 {
		t.Fatal("precondition issued programs")
	}
}

func TestDeviceGCReclaimsUnderRandomOverwrite(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallZSSD()
	dev := NewDevice(cfg, eng)
	dev.Precondition(1.0)
	rng := sim.NewRNG(7)
	pages := dev.ExportedBytes() / 4096
	completed := 0
	var issue func()
	issue = func() {
		off := rng.Int63n(pages) * 4096
		dev.Submit(&Request{Write: true, Offset: off, Len: 4096, Done: func(sim.Time) {
			completed++
			if completed < 3000 {
				issue()
			}
		}})
	}
	issue()
	eng.Run()
	if completed != 3000 {
		t.Fatalf("completed %d writes, want 3000", completed)
	}
	st := dev.Stats()
	if st.GCRuns == 0 {
		t.Fatal("sustained overwrites never triggered GC")
	}
	if st.FlashErases == 0 {
		t.Fatal("GC never erased a block")
	}
	// The device must stay writable: free blocks exist somewhere.
	free := 0
	for u := 0; u < cfg.Units(); u++ {
		free += dev.FTL().FreeBlocks(u)
	}
	if free == 0 {
		t.Fatal("device wedged with zero free blocks")
	}
	if err := dev.FTL().Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceWriteBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallNVMe()
	cfg.WriteBufferBytes = 64 * 1024 // tiny buffer
	dev := NewDevice(cfg, eng)
	completed := 0
	const total = 64
	for i := 0; i < total; i++ {
		dev.Submit(&Request{Write: true, Offset: int64(i) * 16384, Len: 16384,
			Done: func(sim.Time) { completed++ }})
	}
	eng.Run()
	if completed != total {
		t.Fatalf("completed %d/%d writes under backpressure", completed, total)
	}
	if dev.Stats().WriteStalls == 0 {
		t.Fatal("tiny buffer produced no stalls")
	}
}

func TestDeviceSuperChannelPairing(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallZSSD()
	dev := NewDevice(cfg, eng)
	// Consecutive allocations must alternate between the channels of a
	// pair so split host blocks transfer in lockstep.
	u1, _, ok1 := dev.allocate(false)
	u2, _, ok2 := dev.allocate(false)
	if !ok1 || !ok2 {
		t.Fatal("allocation failed")
	}
	ch1 := u1 / (cfg.WaysPerChannel * cfg.PlanesPerDie)
	ch2 := u2 / (cfg.WaysPerChannel * cfg.PlanesPerDie)
	if ch1/2 != ch2/2 || ch1 == ch2 {
		t.Fatalf("paired allocations on channels %d,%d — want same pair, different members", ch1, ch2)
	}
	_ = eng
}

func TestDevicePowerMeterIntegrates(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallZSSD(), eng)
	for i := 0; i < 50; i++ {
		runOne(eng, dev, true, int64(i)*4096, 4096)
	}
	end := eng.Now()
	avg := dev.Meter().AvgWatts(end)
	idle := dev.Config().Power.Idle
	if avg <= idle {
		t.Fatalf("average power %v W not above idle %v W during writes", avg, idle)
	}
}

func TestDeviceStatsAccumulate(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallZSSD(), eng)
	runOne(eng, dev, true, 0, 8192)
	runOne(eng, dev, false, 0, 8192)
	st := dev.Stats()
	if st.HostWrites != 1 || st.HostReads != 1 {
		t.Fatalf("host counters: %+v", st)
	}
	us := dev.UnitStats()
	if us.Programs == 0 {
		t.Fatal("unit stats report no programs")
	}
}
