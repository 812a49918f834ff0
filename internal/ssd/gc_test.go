package ssd

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// sealVictim fills one host block on unit 0 with LPNs 0.. and overwrites
// the first invalid of them on unit 1, leaving unit 0's block a sealed
// GC victim. It returns the block and the LPNs still valid in it.
func sealVictim(t *testing.T, f *FTL, invalid int) (block int, live []int64) {
	t.Helper()
	for lpn := int64(0); lpn < int64(f.slotsPerBlock); lpn++ {
		ppn, ok := f.Allocate(0, false)
		if !ok {
			t.Fatal("host allocation failed")
		}
		f.Commit(lpn, ppn)
		if lpn == 0 {
			_, block, _ = f.Unpack(ppn)
		}
	}
	for lpn := int64(0); lpn < int64(f.slotsPerBlock); lpn++ {
		if lpn < int64(invalid) {
			ppn, _ := f.Allocate(1, false)
			f.Commit(lpn, ppn)
			continue
		}
		live = append(live, lpn)
	}
	return block, live
}

func TestVictimFillsCallerBuffer(t *testing.T) {
	f := NewFTL(tinyConfig())
	sealVictim(t, f, 1)
	block, want, ok := f.Victim(0, nil)
	if !ok || len(want) != f.slotsPerBlock-1 {
		t.Fatalf("Victim(nil) = block %d, %d pages, ok %v; want %d pages", block, len(want), ok, f.slotsPerBlock-1)
	}
	for i := 1; i < len(want); i++ {
		if want[i-1].PPN >= want[i].PPN {
			t.Fatalf("pages not PPN-sorted: %v", want)
		}
	}
	// A dirty buffer with room: the pages land in its backing array,
	// replacing whatever it held.
	buf := make([]MigrationPage, 2, 16)
	buf[0], buf[1] = MigrationPage{LPN: 99, PPN: 99}, MigrationPage{LPN: 98, PPN: 98}
	block2, got, ok := f.Victim(0, buf)
	if !ok || block2 != block {
		t.Fatalf("Victim(buf) = block %d ok %v, want block %d", block2, ok, block)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Victim(buf) pages %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("Victim did not reuse the caller's backing array")
	}
	// No victim: the buffer comes back empty, still reusable.
	g := NewFTL(tinyConfig())
	if _, none, ok := g.Victim(0, buf); ok || len(none) != 0 || cap(none) != cap(buf) {
		t.Fatalf("Victim on a fresh FTL = %d pages (cap %d) ok %v, want none in the caller's buffer", len(none), cap(none), ok)
	}
}

// Two flushes of one LPN may land in either order; only the newer one
// may own the slot, and the stale copy must be counted invalid.
func TestFlushesOfOneSlotLandOutOfOrder(t *testing.T) {
	for _, newerFirst := range []bool{false, true} {
		eng := sim.NewEngine()
		d := NewDevice(smallZSSD(), eng)
		const lpn = 5
		flush := func() (*bufEntry, int64) {
			e, isNew := d.buf.Insert(lpn, d.buf.FullMask())
			if !isNew {
				t.Fatal("second write merged into a flushing entry")
			}
			e.flushing = true
			d.buf.Detach(e)
			_, ppn, n := d.allocateRun(1)
			if n != 1 {
				t.Fatal("allocation failed")
			}
			return e, ppn
		}
		older, oldPPN := flush()
		newer, newPPN := flush()
		if newerFirst {
			d.finishFlush(newer, newPPN)
			d.finishFlush(older, oldPPN)
		} else {
			d.finishFlush(older, oldPPN)
			d.finishFlush(newer, newPPN)
		}
		if got, ok := d.ftl.Lookup(lpn); !ok || got != newPPN {
			t.Fatalf("newerFirst=%v: LPN maps to %d (mapped %v), want the newer flush's %d", newerFirst, got, ok, newPPN)
		}
		if d.ftl.owner(oldPPN) != noPPN || d.ftl.blockOf(oldPPN).invalid != 1 {
			t.Fatalf("newerFirst=%v: stale PPN %d still owned or not counted invalid", newerFirst, oldPPN)
		}
		if d.buf.Used() != 0 || d.buf.Covers(lpn, 1) {
			t.Fatalf("newerFirst=%v: buffer still holds the slot (%d bytes)", newerFirst, d.buf.Used())
		}
		if err := d.ftl.Check(); err != nil {
			t.Fatalf("newerFirst=%v: %v", newerFirst, err)
		}
	}
}

// When a migration program cannot allocate, the GC run retries every
// 100us instead of dropping the chunk, and finishes the pass once space
// returns, relocating every live slot exactly once.
func TestGCRetriesWhenMigrationCannotAllocate(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"zssd", smallZSSD()}, {"nvme", smallNVMe()}} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			d := NewDevice(c.cfg, eng)
			f := d.ftl
			victim, live := sealVictim(t, f, 5)
			// Take unit 0's free list away: GC finds its victim but has
			// nowhere to program the migrated slots.
			u := &f.ustate[0]
			saved := u.free
			u.free = nil
			d.startGC(0)
			stall := 2 * sim.Millisecond
			eng.RunUntil(stall)
			if got := d.units[0].Stats().Programs; got != 0 {
				t.Fatalf("%d programs without space", got)
			}
			if !f.GCRunning(0) || d.stats.GCMigrations != 0 || eng.Pending() == 0 {
				t.Fatalf("stalled run: running %v, migrations %d, pending events %d; want a retry pending",
					f.GCRunning(0), d.stats.GCMigrations, eng.Pending())
			}
			u.free = saved
			eng.Run()
			if f.GCRunning(0) {
				t.Fatal("GC run never finished after space returned")
			}
			if got := d.stats.GCMigrations; got != uint64(len(live)) {
				t.Fatalf("GCMigrations = %d, want %d", got, len(live))
			}
			if d.stats.FlashErases != 1 {
				t.Fatalf("FlashErases = %d, want 1", d.stats.FlashErases)
			}
			for _, lpn := range live {
				ppn, ok := f.Lookup(lpn)
				unit, block, _ := f.Unpack(ppn)
				if !ok || unit != 0 || block == victim {
					t.Fatalf("LPN %d maps to unit %d block %d (mapped %v); want a unit-0 block other than victim %d",
						lpn, unit, block, ok, victim)
				}
			}
			if err := f.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
