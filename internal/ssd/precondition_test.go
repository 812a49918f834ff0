package ssd

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// referencePrecondition is the per-slot fill the closed form replaces:
// sequential whole-page writes through the round-robin allocator,
// committing every slot. It is the oracle for Precondition.
func referencePrecondition(d *Device, fraction float64) {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	n := int64(fraction * float64(d.ftl.ExportedPages()))
	for lpn := int64(0); lpn < n; {
		want := int(n - lpn)
		if spp := d.ftl.SlotsPerPage(); want > spp {
			want = spp
		}
		_, ppn, count := d.allocateRun(want)
		if count == 0 {
			return
		}
		for i := 0; i < count; i++ {
			d.ftl.Commit(lpn, ppn+int64(i))
			lpn++
		}
	}
}

// sameFTL fails t unless the two devices agree on every LPN's location,
// every slot's owner, every block's counters and every unit's
// allocation state.
func sameFTL(t *testing.T, what string, got, want *Device) {
	t.Helper()
	g, w := got.ftl, want.ftl
	for lpn := int64(0); lpn < w.ExportedPages(); lpn++ {
		gp, gok := g.Lookup(lpn)
		wp, wok := w.Lookup(lpn)
		if gp != wp || gok != wok {
			t.Fatalf("%s: Lookup(%d) = %d,%v, want %d,%v", what, lpn, gp, gok, wp, wok)
		}
	}
	for ppn := int64(0); ppn < w.p2l.n; ppn++ {
		if gotOwner, wantOwner := g.owner(ppn), w.owner(ppn); gotOwner != wantOwner {
			t.Fatalf("%s: owner(%d) = %d, want %d", what, ppn, gotOwner, wantOwner)
		}
	}
	for bi := range w.blocks {
		gb, wb := g.blocks[bi], w.blocks[bi]
		if gb.written != wb.written || gb.committed != wb.committed || gb.invalid != wb.invalid {
			t.Fatalf("%s: block %d = %+v, want %+v", what, bi, gb, wb)
		}
	}
	for u := range w.ustate {
		gu, wu := g.ustate[u], w.ustate[u]
		if !slices.Equal(gu.free, wu.free) || gu.active != wu.active || gu.nextSlot != wu.nextSlot ||
			gu.gcActive != wu.gcActive || gu.gcNextSlot != wu.gcNextSlot || gu.eraseCount != wu.eraseCount {
			t.Fatalf("%s: unit %d = %+v, want %+v", what, u, gu, wu)
		}
	}
	if got.allocCursor != want.allocCursor {
		t.Fatalf("%s: allocCursor = %d, want %d", what, got.allocCursor, want.allocCursor)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("%s: closed form: %v", what, err)
	}
	if err := w.Check(); err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
}

// churn drives a seeded mix of overwrites, trims and reads at queue
// depth 4 through dev: enough writes to run GC across the
// preconditioned region.
func churn(eng *sim.Engine, dev *Device, ops int) {
	rng := sim.NewRNG(42)
	slot := int64(dev.Config().MappingUnitBytes())
	span := dev.ExportedBytes() / slot * 17 / 20 // headroom so a 0-OP device cannot wedge
	issued := 0
	var issue func()
	issue = func() {
		if issued == ops {
			return
		}
		issued++
		r := &Request{Offset: rng.Int63n(span-8) * slot, Done: func(sim.Time) { issue() }}
		switch k := rng.Intn(20); {
		case k < 14:
			r.Op, r.Len = OpWrite, int(slot)*(1+rng.Intn(2))
		case k < 17:
			r.Op, r.Len = OpTrim, int(slot)*(1+rng.Intn(8))
		default:
			r.Op, r.Len = OpRead, int(slot)
		}
		dev.Submit(r)
	}
	for i := 0; i < 4; i++ {
		issue()
	}
	eng.Run()
}

func noOPConfig() Config {
	cfg := smallNVMe()
	cfg.OverProvision = 0
	return cfg
}

// The closed form must leave exactly the state the per-slot fill leaves,
// and both must evolve identically under overwrites, trims and GC.
func TestPreconditionMatchesReference(t *testing.T) {
	geoms := []struct {
		name string
		cfg  Config
	}{{"tiny", tinyConfig()}, {"zssd", smallZSSD()}, {"nvme", smallNVMe()}, {"no-op", noOPConfig()}}
	fractions := []float64{0, 1e-9, 0.3, 0.5, 0.9, 0.999, 1.0}
	var partial, capped, gc bool
	for _, g := range geoms {
		cfg := g.cfg
		for _, frac := range fractions {
			what := fmt.Sprintf("%s@%v", g.name, frac)
			engA, engB := sim.NewEngine(), sim.NewEngine()
			a, b := NewDevice(cfg, engA), NewDevice(cfg, engB)
			a.Precondition(frac)
			referencePrecondition(b, frac)
			n := int64(frac * float64(b.ftl.ExportedPages()))
			partial = partial || n%int64(cfg.SlotsPerPage()) != 0
			if _, ok := b.ftl.Lookup(n - 1); n > 0 && !ok {
				capped = true
			}
			sameFTL(t, what+" after precondition", a, b)

			churn(engA, a, 1200)
			churn(engB, b, 1200)
			sameFTL(t, what+" after churn", a, b)
			gc = gc || b.Stats().GCMigrations > 0
			if a.Stats() != b.Stats() || engA.Now() != engB.Now() {
				t.Fatalf("%s: stats %+v at %v, want %+v at %v", what, a.Stats(), engA.Now(), b.Stats(), engB.Now())
			}
		}
	}
	if !partial || !capped || !gc {
		t.Fatalf("coverage: partial last page %v, reserve cap %v, GC migrations %v; want all", partial, capped, gc)
	}
}

// mapped counts the LPNs a device maps.
func mapped(d *Device) int64 {
	n := int64(0)
	for lpn := int64(0); lpn < d.ftl.ExportedPages(); lpn++ {
		if _, ok := d.ftl.Lookup(lpn); ok {
			n++
		}
	}
	return n
}

func TestPreconditionClampsFraction(t *testing.T) {
	full := NewDevice(smallNVMe(), sim.NewEngine())
	full.Precondition(1)
	for _, c := range []struct {
		frac float64
		want int64
	}{{math.NaN(), 0}, {-0.5, 0}, {math.Inf(-1), 0}, {1.5, mapped(full)}, {math.Inf(1), mapped(full)}} {
		d := NewDevice(smallNVMe(), sim.NewEngine())
		d.Precondition(c.frac)
		if got := mapped(d); got != c.want {
			t.Errorf("Precondition(%v) mapped %d LPNs, want %d", c.frac, got, c.want)
		}
		if err := d.ftl.Check(); err != nil {
			t.Errorf("Precondition(%v): %v", c.frac, err)
		}
	}
}

func TestPreconditionRequiresFreshDevice(t *testing.T) {
	for name, setup := range map[string]func(d *Device){
		"after precondition": func(d *Device) { d.Precondition(0.5) },
		"after a write":      func(d *Device) { runOne(d.eng, d, true, 0, 4096) },
	} {
		d := NewDevice(smallZSSD(), sim.NewEngine())
		setup(d)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "already allocated") {
					t.Errorf("%s: Precondition recovered %v, want an already-allocated panic", name, r)
				}
			}()
			d.Precondition(0.5)
		}()
	}
	// A fill too small to allocate leaves the device fresh.
	d := NewDevice(smallZSSD(), sim.NewEngine())
	d.Precondition(1e-9)
	d.Precondition(0.5)
}

func TestNewFTLRejectsInt32Overflow(t *testing.T) {
	cfg := ZSSD()
	cfg.BlocksPerUnit = 1 << 20
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "mapping slots") {
			t.Fatalf("NewFTL recovered %v, want a mapping-slot limit panic", r)
		}
	}()
	NewFTL(cfg)
}

// Check must notice each class of corruption it audits.
func TestFTLCheckDetectsCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(f *FTL){
		"p2l names another LPN": func(f *FTL) { f.p2l.set(f.pack(0, 0, 0), 1000+1) },
		"l2p override dangles":  func(f *FTL) { f.l2p.set(5, int32(f.pack(1, 9, 0))+1) },
		"invalid miscounted":    func(f *FTL) { f.blocks[0].invalid++ },
		"committed > written":   func(f *FTL) { f.blocks[0].committed = f.blocks[0].written + 1 },
		"free list repeats":     func(f *FTL) { f.ustate[0].free = append(f.ustate[0].free, f.ustate[0].free[0]) },
		"written block freed":   func(f *FTL) { f.ustate[0].free = append(f.ustate[0].free, 0) },
		"block leaked":          func(f *FTL) { f.ustate[0].free = f.ustate[0].free[1:] },
		"reserve taken": func(f *FTL) {
			for _, b := range f.ustate[0].free {
				f.blocks[f.blockIndex(0, b)].written = 1 // host-allocated, program pending
			}
			f.ustate[0].free = f.ustate[0].free[:0]
		},
		"write point drifts": func(f *FTL) { f.ustate[0].nextSlot-- },
	} {
		d := NewDevice(smallZSSD(), sim.NewEngine())
		d.Precondition(0.5)
		if err := d.ftl.Check(); err != nil {
			t.Fatalf("%s: clean device: %v", name, err)
		}
		corrupt(d.ftl)
		if d.ftl.Check() == nil {
			t.Errorf("%s: Check passed a corrupted FTL", name)
		}
	}
}
