package ssd

import (
	"testing"

	"repro/internal/sim"
)

func TestTrimUnmapsAndInvalidates(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallZSSD(), eng)
	runOne(eng, dev, true, 0, 8192) // map 4 ULL slots (2KB each)
	inv0 := totalInvalid(dev)
	done := false
	dev.Submit(&Request{Op: OpTrim, Offset: 0, Len: 8192, Done: func(sim.Time) { done = true }})
	eng.Run()
	if !done {
		t.Fatal("trim never completed")
	}
	if dev.Stats().HostTrims != 1 {
		t.Fatalf("HostTrims = %d", dev.Stats().HostTrims)
	}
	if _, ok := dev.FTL().Lookup(0); ok {
		t.Fatal("trimmed LPN still mapped")
	}
	if totalInvalid(dev) <= inv0 {
		t.Fatal("trim did not invalidate physical slots")
	}
	// Reading a trimmed range zero-fills.
	pre := dev.Stats().ZeroFills
	runOne(eng, dev, false, 0, 4096)
	if dev.Stats().ZeroFills <= pre {
		t.Fatal("read of trimmed range hit media")
	}
	if err := dev.FTL().Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTrimPartialSlotLeftMapped(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallNVMe(), eng) // 4KB slots
	runOne(eng, dev, true, 0, 4096)
	done := false
	dev.Submit(&Request{Op: OpTrim, Offset: 0, Len: 1024, Done: func(sim.Time) { done = true }})
	eng.Run()
	if !done {
		t.Fatal("trim never completed")
	}
	if _, ok := dev.FTL().Lookup(0); !ok {
		t.Fatal("partial-slot trim unmapped the slot")
	}
	if err := dev.FTL().Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTrimFreesSpaceForGC(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallZSSD()
	dev := NewDevice(cfg, eng)
	dev.Precondition(1.0)
	// Trim half the device: GC victims become nearly free.
	half := dev.ExportedBytes() / 2
	dev.Submit(&Request{Op: OpTrim, Offset: 0, Len: int(half), Done: func(sim.Time) {}})
	eng.Run()
	inv := 0
	for u := 0; u < cfg.Units(); u++ {
		inv += dev.FTL().TotalInvalid(u)
	}
	if int64(inv)*int64(cfg.MappingUnitBytes()) < half/2 {
		t.Fatalf("trim invalidated only %d slots", inv)
	}
	if err := dev.FTL().Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushDrainsBuffer(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallNVMe()
	cfg.FlushDelay = sim.Second // writes would otherwise linger
	dev := NewDevice(cfg, eng)
	// Partial-slot write stays buffered behind the long FlushDelay.
	dev.Submit(&Request{Write: true, Offset: 0, Len: 1024, Done: func(sim.Time) {}})
	eng.RunUntil(50 * sim.Microsecond)
	if dev.buf.Used() == 0 {
		t.Fatal("precondition failed: nothing buffered")
	}
	var flushEnd sim.Time
	dev.Submit(&Request{Op: OpFlush, Done: func(end sim.Time) { flushEnd = end }})
	eng.Run()
	if flushEnd == 0 {
		t.Fatal("flush never completed")
	}
	if dev.buf.Used() != 0 {
		t.Fatalf("buffer holds %d bytes after flush", dev.buf.Used())
	}
	if dev.Stats().HostFlushes != 1 {
		t.Fatalf("HostFlushes = %d", dev.Stats().HostFlushes)
	}
	if _, ok := dev.FTL().Lookup(0); !ok {
		t.Fatal("flushed slot not committed to media")
	}
}

func TestFlushOnEmptyBuffer(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(smallZSSD(), eng)
	done := false
	dev.Submit(&Request{Op: OpFlush, Done: func(sim.Time) { done = true }})
	eng.Run()
	if !done {
		t.Fatal("empty flush never completed")
	}
}

func TestWearStats(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallZSSD()
	dev := NewDevice(cfg, eng)
	dev.Precondition(1.0)
	rng := sim.NewRNG(5)
	pages := dev.ExportedBytes() / 4096
	n := 0
	var issue func()
	issue = func() {
		dev.Submit(&Request{Write: true, Offset: rng.Int63n(pages) * 4096, Len: 4096,
			Done: func(sim.Time) {
				n++
				if n < 4000 {
					issue()
				}
			}})
	}
	issue()
	eng.Run()
	w := dev.FTL().Wear()
	if w.Total == 0 {
		t.Fatal("sustained overwrites produced no erases")
	}
	if w.Max < w.Min {
		t.Fatal("wear stats inconsistent")
	}
	// Round-robin allocation keeps wear reasonably level.
	if w.Min == 0 && w.Max > 3 {
		t.Fatalf("wear severely unbalanced: min=%d max=%d", w.Min, w.Max)
	}
}

func totalInvalid(dev *Device) int {
	inv := 0
	for u := 0; u < dev.Config().Units(); u++ {
		inv += dev.FTL().TotalInvalid(u)
	}
	return inv
}
