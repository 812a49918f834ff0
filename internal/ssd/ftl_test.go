package ssd

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// tinyConfig returns a small geometry for FTL unit tests.
func tinyConfig() Config {
	cfg := ZSSD()
	cfg.Channels = 2
	cfg.WaysPerChannel = 1
	cfg.PlanesPerDie = 1
	cfg.PagesPerBlock = 4
	cfg.BlocksPerUnit = 8
	cfg.OverProvision = 0.25
	return cfg
}

func TestFTLGeometry(t *testing.T) {
	cfg := tinyConfig()
	f := NewFTL(cfg)
	// 2 units * 8 blocks * 4 pages = 64 pages raw; 75% exported = 48.
	if got := f.ExportedPages(); got != 48 {
		t.Fatalf("ExportedPages = %d, want 48", got)
	}
}

func TestFTLPackUnpack(t *testing.T) {
	f := NewFTL(tinyConfig())
	for unit := 0; unit < 2; unit++ {
		for block := 0; block < 8; block++ {
			for page := 0; page < 4; page++ {
				ppn := f.pack(unit, block, page)
				u, b, p := f.Unpack(ppn)
				if u != unit || b != block || p != page {
					t.Fatalf("Unpack(pack(%d,%d,%d)) = %d,%d,%d", unit, block, page, u, b, p)
				}
				if f.UnitOf(ppn) != unit {
					t.Fatalf("UnitOf mismatch for %d", ppn)
				}
			}
		}
	}
}

func TestFTLLookupUnmapped(t *testing.T) {
	f := NewFTL(tinyConfig())
	if _, ok := f.Lookup(0); ok {
		t.Fatal("fresh FTL reports mapping")
	}
	if _, ok := f.Lookup(-1); ok {
		t.Fatal("negative LPN reports mapping")
	}
	if _, ok := f.Lookup(1 << 40); ok {
		t.Fatal("out-of-range LPN reports mapping")
	}
}

func TestFTLAllocateCommitLookup(t *testing.T) {
	f := NewFTL(tinyConfig())
	ppn, ok := f.Allocate(0, false)
	if !ok {
		t.Fatal("Allocate failed on fresh FTL")
	}
	f.Commit(7, ppn)
	got, ok := f.Lookup(7)
	if !ok || got != ppn {
		t.Fatalf("Lookup(7) = %d,%v want %d,true", got, ok, ppn)
	}
}

func TestFTLOverwriteInvalidates(t *testing.T) {
	f := NewFTL(tinyConfig())
	p1, _ := f.Allocate(0, false)
	f.Commit(3, p1)
	p2, _ := f.Allocate(0, false)
	f.Commit(3, p2)
	if got, _ := f.Lookup(3); got != p2 {
		t.Fatalf("Lookup after overwrite = %d, want %d", got, p2)
	}
	if inv := f.TotalInvalid(0); inv != 1 {
		t.Fatalf("TotalInvalid = %d, want 1", inv)
	}
}

func TestFTLHostReserveBlock(t *testing.T) {
	f := NewFTL(tinyConfig())
	// Host allocation must stop with one free block in reserve.
	n := 0
	for {
		if _, ok := f.Allocate(0, false); !ok {
			break
		}
		n++
	}
	if free := f.FreeBlocks(0); free != 1 {
		t.Fatalf("FreeBlocks after host exhaustion = %d, want 1 reserve", free)
	}
	// 7 of 8 blocks * 4 pages = 28 allocations.
	if n != 28 {
		t.Fatalf("host allocations = %d, want 28", n)
	}
	// GC can still allocate from the reserve.
	if _, ok := f.Allocate(0, true); !ok {
		t.Fatal("GC allocation failed with reserve block available")
	}
}

func TestFTLVictimPicksMostInvalid(t *testing.T) {
	f := NewFTL(tinyConfig())
	// Fill two blocks on unit 0 with distinct LPNs.
	var ppns []int64
	for i := 0; i < 8; i++ {
		p, ok := f.Allocate(0, false)
		if !ok {
			t.Fatal("alloc failed")
		}
		f.Commit(int64(i), p)
		ppns = append(ppns, p)
	}
	// Overwrite LPNs 0-2 (three pages of block 0) elsewhere.
	for i := 0; i < 3; i++ {
		p, _ := f.Allocate(1, false)
		f.Commit(int64(i), p)
	}
	block, valid, ok := f.Victim(0, nil)
	if !ok {
		t.Fatal("no victim found")
	}
	if block != 0 {
		t.Fatalf("victim = block %d, want 0", block)
	}
	if len(valid) != 1 {
		t.Fatalf("valid pages = %d, want 1", len(valid))
	}
	if valid[0].LPN != 3 {
		t.Fatalf("surviving LPN = %d, want 3", valid[0].LPN)
	}
}

func TestFTLVictimRequiresInvalid(t *testing.T) {
	f := NewFTL(tinyConfig())
	for i := 0; i < 4; i++ {
		p, _ := f.Allocate(0, false)
		f.Commit(int64(i), p)
	}
	if _, _, ok := f.Victim(0, nil); ok {
		t.Fatal("Victim returned a fully-valid block")
	}
}

func TestFTLVictimSkipsUncommitted(t *testing.T) {
	f := NewFTL(tinyConfig())
	// Allocate a full block but commit only 3 pages: block not sealed.
	var ppns []int64
	for i := 0; i < 4; i++ {
		p, _ := f.Allocate(0, false)
		ppns = append(ppns, p)
	}
	for i := 0; i < 3; i++ {
		f.Commit(int64(i), ppns[i])
	}
	// Invalidate some for good measure.
	p, _ := f.Allocate(0, false)
	f.Commit(0, p)
	if _, _, ok := f.Victim(0, nil); ok {
		t.Fatal("Victim returned an unsealed block")
	}
}

func TestFTLEraseRecycles(t *testing.T) {
	f := NewFTL(tinyConfig())
	for i := 0; i < 4; i++ {
		p, _ := f.Allocate(0, false)
		f.Commit(int64(i), p)
	}
	// Invalidate all four by rewriting on unit 1.
	for i := 0; i < 4; i++ {
		p, _ := f.Allocate(1, false)
		f.Commit(int64(i), p)
	}
	freeBefore := f.FreeBlocks(0)
	block, valid, ok := f.Victim(0, nil)
	if !ok || len(valid) != 0 {
		t.Fatalf("victim ok=%v valid=%d, want fully invalid block", ok, len(valid))
	}
	f.EraseDone(0, block)
	if f.FreeBlocks(0) != freeBefore+1 {
		t.Fatal("erase did not recycle block")
	}
	if f.EraseCount(0) != 1 {
		t.Fatalf("EraseCount = %d", f.EraseCount(0))
	}
	// The recycled block is allocatable again.
	for i := 0; i < 4; i++ {
		if _, ok := f.Allocate(0, true); !ok {
			t.Fatal("allocation from recycled block failed")
		}
	}
}

func TestFTLCommitDiscard(t *testing.T) {
	f := NewFTL(tinyConfig())
	p, _ := f.Allocate(0, false)
	f.CommitDiscard(p)
	if inv := f.TotalInvalid(0); inv != 1 {
		t.Fatalf("TotalInvalid = %d, want 1", inv)
	}
	if _, ok := f.Lookup(0); ok {
		t.Fatal("discarded commit installed a mapping")
	}
}

func TestFTLStillCurrent(t *testing.T) {
	f := NewFTL(tinyConfig())
	p1, _ := f.Allocate(0, false)
	f.Commit(5, p1)
	if !f.StillCurrent(5, p1) {
		t.Fatal("StillCurrent false for fresh mapping")
	}
	p2, _ := f.Allocate(0, false)
	f.Commit(5, p2)
	if f.StillCurrent(5, p1) {
		t.Fatal("StillCurrent true for stale mapping")
	}
}

// Property: after any sequence of overwrites, every mapped LPN resolves to
// a PPN whose reverse entry names that LPN, and invalid counts equal
// total commits minus live mappings.
func TestFTLMappingInvariant(t *testing.T) {
	prop := func(writes []uint8) bool {
		cfg := tinyConfig()
		f := NewFTL(cfg)
		commits := 0
		for _, w := range writes {
			lpn := int64(w) % f.ExportedPages()
			unit := int(w) % cfg.Units()
			ppn, ok := f.Allocate(unit, false)
			if !ok {
				break
			}
			f.Commit(lpn, ppn)
			commits++
		}
		live := 0
		for lpn := int64(0); lpn < f.ExportedPages(); lpn++ {
			ppn, ok := f.Lookup(lpn)
			if !ok {
				continue
			}
			live++
			if f.owner(ppn) != lpn {
				return false
			}
		}
		invalid := 0
		for u := 0; u < cfg.Units(); u++ {
			invalid += f.TotalInvalid(u)
		}
		return commits-live == invalid && f.Check() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigCapacities(t *testing.T) {
	for _, cfg := range []Config{ZSSD(), NVMe750()} {
		raw := cfg.RawBytes()
		exp := cfg.ExportedBytes()
		if exp >= raw {
			t.Errorf("%s: exported %d >= raw %d", cfg.Name, exp, raw)
		}
		if exp%int64(cfg.MappingUnitBytes()) != 0 {
			t.Errorf("%s: exported capacity not slot aligned", cfg.Name)
		}
		ratio := float64(exp) / float64(raw)
		if ratio < 1-cfg.OverProvision-0.01 || ratio > 1-cfg.OverProvision+0.01 {
			t.Errorf("%s: OP ratio %.3f, want ~%.3f", cfg.Name, 1-ratio, cfg.OverProvision)
		}
	}
}

func TestZSSDIsFasterTechnology(t *testing.T) {
	z, n := ZSSD(), NVMe750()
	if z.NAND.ReadLatency >= n.NAND.ReadLatency {
		t.Error("Z-NAND read latency must beat conventional flash")
	}
	if z.NAND.ProgramLatency >= n.NAND.ProgramLatency {
		t.Error("Z-NAND program latency must beat conventional flash")
	}
	if !z.SuperChannels || n.SuperChannels {
		t.Error("super-channels belong to the ULL device only")
	}
	if !z.NAND.ProgramSuspend || n.NAND.ProgramSuspend {
		t.Error("program suspend belongs to the ULL device only")
	}
}

func TestJitterHelpers(t *testing.T) {
	rng := sim.NewRNG(1)
	if rng.Jitter(0, 0.5) != 0 {
		t.Error("jitter of zero duration changed value")
	}
}
