package ssd

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/sim"
)

// A mapping direction must read back exactly what a plain []int32 would,
// through random stores, block-sized clears and the promotion from the
// override table to the flat array, at both preset geometries.
func TestMapDirMatchesFlatArray(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"zssd", ZSSD()}, {"nvme750", NVMe750()}} {
		f := NewFTL(c.cfg)
		for _, dir := range []struct {
			name string
			n    int64
		}{{"l2p", f.exportedSlots}, {"p2l", f.p2l.n}} {
			m := mapDir{n: dir.n}
			want := make([]int32, dir.n)
			same := func(when string) {
				t.Helper()
				for i := range want {
					if got := m.get(int64(i)); got != want[i] {
						t.Fatalf("%s %s %s: get(%d) = %d, want %d", c.name, dir.name, when, i, got, want[i])
					}
				}
			}
			same("fresh")
			if m.table.Cap() != 0 || m.flat != nil {
				t.Fatalf("%s %s: reads allocated storage", c.name, dir.name)
			}
			rng := sim.NewRNG(uint64(dir.n))
			spb := int64(f.slotsPerBlock)
			blocks := dir.n / spb
			// Stores land in a window of blocks, so entries are
			// overwritten and cleared as well as added.
			window := blocks / 8
			after := -1
			for op := 0; after < 20000; op++ {
				wasFlat := m.flat != nil
				b := rng.Int63n(window)
				switch k := rng.Intn(100); {
				case k < 1:
					m.clearRange(b*spb, (b+1)*spb)
					clear(want[b*spb : (b+1)*spb])
				case k < 10:
					i := b*spb + rng.Int63n(spb)
					m.set(i, 0)
					want[i] = 0
				case k < 30:
					i := b*spb + rng.Int63n(spb)
					m.set(i, unmapped)
					want[i] = unmapped
				case k < 80:
					i := b*spb + rng.Int63n(spb)
					v := int32(1 + rng.Int63n(dir.n))
					m.set(i, v)
					want[i] = v
				default:
					i := rng.Int63n(dir.n)
					if got := m.get(i); got != want[i] {
						t.Fatalf("%s %s op %d: get(%d) = %d, want %d", c.name, dir.name, op, i, got, want[i])
					}
				}
				switch {
				case m.flat != nil && !wasFlat:
					same("at promotion")
					if m.table.Cap() != 0 || int64(len(m.flat)) != dir.n {
						t.Fatalf("%s %s: promotion left table %d cells, flat %d entries", c.name, dir.name, m.table.Cap(), len(m.flat))
					}
					after = 0
				case m.flat == nil && m.table.Len() > m.table.Cap()/2:
					t.Fatalf("%s %s: table over half full (%d of %d)", c.name, dir.name, m.table.Len(), m.table.Cap())
				case op == 5000:
					same("sparse")
				case after >= 0:
					after++
				}
			}
			same("flat")
		}
	}
}

// Check must hold after the same seeded overwrite, trim and GC mix
// whether a device's mapping is still sparse or has been promoted.
func TestFTLCheckSparseAndPromoted(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		flat bool
	}{{"sparse", ZSSD(), false}, {"promoted", smallZSSD(), true}} {
		eng := sim.NewEngine()
		d := NewDevice(c.cfg, eng)
		d.Precondition(0.9)
		churn(eng, d, 1200)
		f := d.ftl
		if f.l2p.table.Len() == 0 && f.l2p.flat == nil {
			t.Fatalf("%s: the mix overrode no mapping entry", c.name)
		}
		if (f.l2p.flat != nil) != c.flat || (f.p2l.flat != nil) != c.flat {
			t.Fatalf("%s: l2p flat %v, p2l flat %v, want %v", c.name, f.l2p.flat != nil, f.p2l.flat != nil, c.flat)
		}
		if err := f.Check(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// StillCurrent asks the reverse map; the forward definition it replaced
// must give the same answer on every pair a GC run holds, before and
// after each step of its chain.
func TestStillCurrentMatchesLookup(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(smallZSSD(), eng)
	d.Precondition(0.9)
	f := d.ftl
	checked, stale := 0, 0
	agree := func(pairs []MigrationPage) {
		for _, p := range pairs {
			cur, ok := f.Lookup(p.LPN)
			want := ok && cur == p.PPN
			if got := f.StillCurrent(p.LPN, p.PPN); got != want {
				t.Fatalf("StillCurrent(%d, %d) = %v; Lookup gives %d,%v", p.LPN, p.PPN, got, cur, ok)
			}
			checked++
			if !want {
				stale++
			}
		}
	}
	for u := range d.gcRuns {
		r := d.newGCRun(u)
		d.gcRuns[u] = r
		for _, op := range []*flash.Op{&r.read, &r.prog, &r.erase} {
			done := op.Done
			op.Done = func(at sim.Time) {
				agree(r.valid)
				agree(r.chunk)
				done(at)
				agree(r.valid)
				agree(r.chunk)
			}
		}
	}
	churn(eng, d, 4000)
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().GCMigrations == 0 || stale == 0 {
		t.Fatalf("mix too gentle: %d GC migrations, %d of %d checked pairs stale", d.Stats().GCMigrations, stale, checked)
	}
}
