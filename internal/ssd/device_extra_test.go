package ssd

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestAllocateRunRespectsPageBoundary(t *testing.T) {
	cfg := smallNVMe() // 4 slots per 16KB page
	f := NewFTL(cfg)
	spp := cfg.SlotsPerPage()
	if spp != 4 {
		t.Fatalf("slots per page = %d, want 4", spp)
	}
	// First run: full page.
	ppn, n := f.AllocateRun(0, 10, false)
	if n != 4 {
		t.Fatalf("first run = %d, want clipped to 4", n)
	}
	if ppn%int64(spp) != 0 {
		t.Fatalf("run not page aligned: %d", ppn)
	}
	// Consume one slot, then ask for a big run: clipped to page remainder.
	f.AllocateRun(0, 1, false)
	_, n = f.AllocateRun(0, 10, false)
	if n != 3 {
		t.Fatalf("mid-page run = %d, want 3", n)
	}
}

func TestAllocateRunZeroWant(t *testing.T) {
	f := NewFTL(smallNVMe())
	if _, n := f.AllocateRun(0, 0, false); n != 0 {
		t.Fatal("zero want must allocate nothing")
	}
}

func TestSlotsPerPageULLIsOne(t *testing.T) {
	cfg := smallZSSD()
	if cfg.SlotsPerPage() != 1 {
		t.Fatalf("ULL slots per page = %d, want 1 (mapping unit = page)", cfg.SlotsPerPage())
	}
}

func TestDeviceCheckpointStallsCommands(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallZSSD()
	cfg.CheckpointEvery = 10
	cfg.CheckpointDuration = 300 * sim.Microsecond
	dev := NewDevice(cfg, eng)
	dev.Precondition(0.5)
	var maxLat sim.Time
	n := 0
	var issue func()
	issue = func() {
		start := eng.Now()
		dev.Submit(&Request{Offset: int64(n%16) * 4096, Len: 4096, Done: func(end sim.Time) {
			if lat := end - start; lat > maxLat {
				maxLat = lat
			}
			n++
			if n < 25 {
				issue()
			}
		}})
	}
	issue()
	eng.Run()
	// The 10th and 20th commands stall behind a ~300us checkpoint.
	if maxLat < 250*sim.Microsecond {
		t.Fatalf("max latency %v shows no checkpoint stall", maxLat)
	}
}

func TestDeviceCheckpointDisabled(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallZSSD()
	cfg.CheckpointEvery = 0
	dev := NewDevice(cfg, eng)
	dev.Precondition(0.5)
	var maxLat sim.Time
	n := 0
	var issue func()
	issue = func() {
		start := eng.Now()
		dev.Submit(&Request{Offset: int64(n%16) * 4096, Len: 4096, Done: func(end sim.Time) {
			if lat := end - start; lat > maxLat {
				maxLat = lat
			}
			n++
			if n < 50 {
				issue()
			}
		}})
	}
	issue()
	eng.Run()
	if maxLat > 200*sim.Microsecond {
		t.Fatalf("latency %v too high with checkpoints disabled", maxLat)
	}
}

func TestDeviceGCWatermarkJitterWithinBounds(t *testing.T) {
	cfg := smallZSSD()
	dev := NewDevice(cfg, sim.NewEngine())
	for u, low := range dev.gcLow {
		if low < cfg.GCLowWater || low > cfg.GCLowWater+2 {
			t.Fatalf("unit %d low water %d outside [%d,%d]", u, low, cfg.GCLowWater, cfg.GCLowWater+2)
		}
	}
}

func TestDeviceLargeRequestSpansManyUnits(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallZSSD()
	dev := NewDevice(cfg, eng)
	dev.Precondition(1.0)
	lat := runOne(eng, dev, false, 0, 1<<20) // 1MB read
	if lat <= 0 {
		t.Fatal("large read did not complete")
	}
	// 1MB over PCIe at 3.3GB/s alone is ~300us.
	if lat < 250*sim.Microsecond {
		t.Fatalf("1MB read latency %v implausibly low", lat)
	}
	if dev.Stats().FlashReads < 100 {
		t.Fatalf("1MB read issued only %d flash reads", dev.Stats().FlashReads)
	}
}

func TestDeviceSuspendsHappenUnderMixedLoad(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallZSSD()
	cfg.ReadCachePages = 0
	cfg.PrefetchPages = 0
	dev := NewDevice(cfg, eng)
	dev.Precondition(1.0)
	rng := sim.NewRNG(3)
	pages := dev.ExportedBytes() / 4096
	n := 0
	var issue func()
	issue = func() {
		off := rng.Int63n(pages) * 4096
		write := n%3 == 0
		dev.Submit(&Request{Write: write, Offset: off, Len: 4096, Done: func(sim.Time) {
			n++
			if n < 2000 {
				issue()
			}
		}})
	}
	issue()
	eng.Run()
	if dev.UnitStats().Suspends == 0 {
		t.Fatal("mixed read/write load never exercised suspend/resume")
	}
}

func TestDeviceNoSuspendWithoutFeature(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallNVMe()
	cfg.ReadCachePages = 0
	cfg.PrefetchPages = 0
	dev := NewDevice(cfg, eng)
	dev.Precondition(1.0)
	rng := sim.NewRNG(3)
	pages := dev.ExportedBytes() / 4096
	n := 0
	var issue func()
	issue = func() {
		off := rng.Int63n(pages) * 4096
		dev.Submit(&Request{Write: n%3 == 0, Offset: off, Len: 4096, Done: func(sim.Time) {
			n++
			if n < 1000 {
				issue()
			}
		}})
	}
	issue()
	eng.Run()
	if dev.UnitStats().Suspends != 0 {
		t.Fatal("conventional device performed suspends")
	}
}

// Property: any interleaving of 4KB reads and writes completes exactly
// once each and leaves the device drained.
func TestDeviceCompletionProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		if len(ops) == 0 || len(ops) > 300 {
			return true
		}
		eng := sim.NewEngine()
		dev := NewDevice(smallZSSD(), eng)
		dev.Precondition(1.0)
		pages := dev.ExportedBytes() / 4096
		completed := 0
		for i, op := range ops {
			op := op
			eng.At(sim.Time(i)*sim.Microsecond, func() {
				dev.Submit(&Request{
					Write:  op&1 == 1,
					Offset: (int64(op>>1) % pages) * 4096,
					Len:    4096,
					Done:   func(sim.Time) { completed++ },
				})
			})
		}
		eng.Run()
		if err := dev.FTL().Check(); err != nil {
			t.Log(err)
			return false
		}
		return completed == len(ops)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any write workload drains, buffer accounting returns to
// zero and every flushed slot is either mapped or discarded (commits
// balance).
func TestDeviceBufferDrainProperty(t *testing.T) {
	prop := func(offs []uint16) bool {
		if len(offs) == 0 || len(offs) > 200 {
			return true
		}
		eng := sim.NewEngine()
		dev := NewDevice(smallZSSD(), eng)
		pages := dev.ExportedBytes() / 4096
		completed := 0
		for _, o := range offs {
			dev.Submit(&Request{
				Write:  true,
				Offset: (int64(o) % pages) * 4096,
				Len:    4096,
				Done:   func(sim.Time) { completed++ },
			})
		}
		eng.Run()
		return completed == len(offs) && dev.buf.Used() == 0 && dev.buf.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerTraceMonotoneTime(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallZSSD(), eng)
	for i := 0; i < 100; i++ {
		runOne(eng, dev, true, int64(i)*4096, 4096)
	}
	pts := dev.Meter().Trace(eng.Now())
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatal("trace time not monotone")
		}
		if pts[i].Mean < 0 {
			t.Fatal("negative power")
		}
	}
}
