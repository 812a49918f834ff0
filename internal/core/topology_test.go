package core

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/spdk"
	"repro/internal/uring"
)

func TestStackKindStringUnknown(t *testing.T) {
	cases := map[StackKind]string{
		KernelSync:    "pvsync2",
		KernelAsync:   "libaio",
		SPDK:          "spdk",
		StackKind(42): "StackKind(42)",
		StackKind(-1): "StackKind(-1)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("StackKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestVolumeKindString(t *testing.T) {
	cases := map[VolumeKind]string{
		Striped:        "striped",
		Concat:         "concat",
		Tiered:         "tiered",
		VolumeKind(99): "VolumeKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("VolumeKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestStackKeepsDeliberateCostTables is the regression test for the
// zero-value sentinel fix: a cost table with deliberately-zero poll
// stages (PollIter()==0) used to be silently replaced by DefaultCosts.
// Stack carries presence as a pointer, so every given table is honored
// and only a nil one defaults.
func TestStackKeepsDeliberateCostTables(t *testing.T) {
	// charged runs one read through st and reports the CPU time fn took.
	charged := func(st Stack, fn cpu.Fn) sim.Time {
		t.Helper()
		g := oneDevice(st, 0)
		if lat := runOne(g, false); lat <= 0 {
			t.Fatalf("%v: read did not complete", st.Kind)
		}
		return g.CPU().Acct(fn).Time
	}

	// A table whose poll stages are free but whose submission path is
	// not.
	kc := kernel.Costs{}
	kc.AppSetup.Time = 5000
	if got := charged(Stack{Kernel: &kc}, cpu.FnAppUser); got != kc.AppSetup.Time {
		t.Fatalf("partial kernel cost table replaced by defaults: app_user charged %v, want %v", got, kc.AppSetup.Time)
	}
	sc := spdk.Costs{}
	sc.Submit.Time = 7000
	if got := charged(Stack{Kind: SPDK, SPDK: &sc}, cpu.FnSPDKSubmit); got != sc.Submit.Time {
		t.Fatalf("partial SPDK cost table replaced by defaults: spdk_submit charged %v, want %v", got, sc.Submit.Time)
	}

	// The fully-zero table is valid too.
	zk, zs := kernel.Costs{}, spdk.Costs{}
	if got := charged(Stack{Kernel: &zk}, cpu.FnAppUser); got != 0 {
		t.Fatalf("zero kernel cost table replaced by defaults: app_user charged %v", got)
	}
	if got := charged(Stack{Kind: SPDK, SPDK: &zs}, cpu.FnSPDKSubmit); got != 0 {
		t.Fatalf("zero SPDK cost table replaced by defaults: spdk_submit charged %v", got)
	}

	// And a nil table still defaults.
	if got, want := charged(Stack{}, cpu.FnAppUser), kernel.DefaultCosts().AppSetup.Time; got != want {
		t.Fatalf("nil kernel cost table not defaulted: app_user charged %v, want %v", got, want)
	}
	if got, want := charged(Stack{Kind: SPDK}, cpu.FnSPDKSubmit), spdk.DefaultCosts().Submit.Time; got != want {
		t.Fatalf("nil SPDK cost table not defaulted: spdk_submit charged %v, want %v", got, want)
	}

	// A zero table is free on every polling completion path too: the
	// loop sees a CQE the instant the entry becomes host-visible — one
	// MSI delivery earlier than a free interrupt path — and Finalize
	// charges no spin.
	t.Run("polled", testZeroCostPolling)
}

func testZeroCostPolling(t *testing.T) {
	zeroUring := func(m uring.Mode) *uring.Config {
		return &uring.Config{Mode: m, Costs: &uring.Costs{}}
	}
	zk, zs := &kernel.Costs{}, &spdk.Costs{}
	run := func(st Stack) (first sim.Time, busy sim.Time) {
		g := oneDevice(st, 0)
		eng := g.Engine()
		// Several serial reads, so hybrid modes run with sleep history.
		for i := 0; i < 8; i++ {
			start := eng.Now()
			var lat sim.Time
			g.Submit(false, int64(i)*4096, 4096, func() { lat = eng.Now() - start })
			eng.Run()
			if lat <= 0 {
				t.Fatalf("%v: read %d did not complete", st.Kind, i)
			}
			if i == 0 {
				first = lat
			}
		}
		g.Finalize()
		return first, g.CPU().BusyTime()
	}

	intr, _ := run(Stack{Kind: KernelSync, Mode: kernel.Interrupt, Kernel: zk})
	want := intr - nvme.DefaultConfig().InterruptLatency
	cases := []struct {
		name string
		st   Stack
	}{
		{"pvsync2-poll", Stack{Kind: KernelSync, Mode: kernel.Poll, Kernel: zk}},
		{"pvsync2-hybrid", Stack{Kind: KernelSync, Mode: kernel.Hybrid, Kernel: zk}},
		{"spdk", Stack{Kind: SPDK, SPDK: zs}},
		{"io_uring-poll", Stack{Kind: IOUring, Uring: zeroUring(uring.Poll)}},
		{"io_uring-hybrid", Stack{Kind: IOUring, Uring: zeroUring(uring.Hybrid)}},
		{"io_uring-sqpoll", Stack{Kind: IOUring, Uring: zeroUring(uring.SQPoll)}},
	}
	for _, c := range cases {
		first, busy := run(c.st)
		if first != want {
			t.Errorf("%s: zero-cost poll saw the first CQE after %v, want %v (the instant it was visible)", c.name, first, want)
		}
		if busy != 0 {
			t.Errorf("%s: zero cost table charged %v of CPU time", c.name, busy)
		}
	}
}

// stripedGraph builds a width-way stripe of small ULL devices behind
// the given stack kind.
func stripedGraph(kind StackKind, mode kernel.Mode, width int, chunk int64) *Graph {
	children := make([]Layer, width)
	for i := range children {
		children[i] = Stack{Kind: kind, Mode: mode, Queue: Queue{Device: smallULL()}}
	}
	return Build(Topology{Root: Volume{Kind: Striped, Chunk: chunk, Children: children}})
}

func TestStripedExportedBytes(t *testing.T) {
	const chunk = 64 << 10
	g := stripedGraph(KernelAsync, 0, 3, chunk)
	leaf := smallULL().ExportedBytes()
	want := leaf / chunk * chunk * 3
	if g.ExportedBytes() != want {
		t.Fatalf("exported = %d, want %d (leaf %d)", g.ExportedBytes(), want, leaf)
	}
	if g.Serial() {
		t.Fatal("volume root must not be serial")
	}
	if len(g.Devices()) != 3 || len(g.QueuePairs()) != 3 {
		t.Fatalf("graph has %d devices, %d queues; want 3 each", len(g.Devices()), len(g.QueuePairs()))
	}
}

func TestStripedRoutesChunksRoundRobin(t *testing.T) {
	const chunk = 64 << 10
	g := stripedGraph(KernelAsync, 0, 2, chunk)
	done := 0
	for i := 0; i < 4; i++ {
		g.Submit(false, int64(i)*chunk, 4096, func() { done++ })
	}
	g.Engine().Run()
	if done != 4 {
		t.Fatalf("completed %d of 4", done)
	}
	for i, d := range g.Devices() {
		if got := d.Stats().HostReads; got != 2 {
			t.Errorf("leaf %d saw %d reads, want 2 (round-robin)", i, got)
		}
	}
	vs := g.VolumeStats()
	if len(vs) != 1 || vs[0].HostIOs != 4 || vs[0].ChildIOs != 4 {
		t.Fatalf("volume stats = %+v", vs)
	}
}

func TestStripedSplitsSpanningIO(t *testing.T) {
	const chunk = 64 << 10
	g := stripedGraph(KernelAsync, 0, 2, chunk)
	done := false
	// 128KiB starting mid-chunk: spans three chunks, so three segments
	// across the two leaves, completing only when all three do.
	g.Submit(true, chunk/2, 2*chunk, func() { done = true })
	g.Engine().Run()
	if !done {
		t.Fatal("spanning I/O never completed")
	}
	vs := g.VolumeStats()[0]
	if vs.HostIOs != 1 || vs.ChildIOs != 3 {
		t.Fatalf("HostIOs=%d ChildIOs=%d, want 1/3", vs.HostIOs, vs.ChildIOs)
	}
	if w0, w1 := g.Devices()[0].Stats().HostWrites, g.Devices()[1].Stats().HostWrites; w0+w1 != 3 || w0 == 0 || w1 == 0 {
		t.Fatalf("writes split %d/%d, want 3 across both leaves", w0, w1)
	}
}

func TestStripedQueuesBehindSerialLeaf(t *testing.T) {
	const chunk = 64 << 10
	g := stripedGraph(KernelSync, kernel.Poll, 2, chunk)
	done := 0
	// Four concurrent I/Os into the same chunk: all route to leaf 0,
	// which serves one at a time — the router must queue, not panic.
	for i := 0; i < 4; i++ {
		g.Submit(false, int64(i)*4096, 4096, func() { done++ })
	}
	g.Engine().Run()
	if done != 4 {
		t.Fatalf("completed %d of 4", done)
	}
	vs := g.VolumeStats()[0]
	if vs.Queued != 3 {
		t.Fatalf("Queued = %d, want 3 (leaf busy)", vs.Queued)
	}
}

func TestConcatSplitsAtBoundary(t *testing.T) {
	g := Build(Topology{Root: Volume{Kind: Concat, Children: []Layer{
		Stack{Kind: KernelAsync, Queue: Queue{Device: smallULL()}},
		Stack{Kind: KernelAsync, Queue: Queue{Device: smallULL()}},
	}}})
	leaf := smallULL().ExportedBytes()
	if g.ExportedBytes() != 2*leaf {
		t.Fatalf("concat exported = %d, want %d", g.ExportedBytes(), 2*leaf)
	}
	done := false
	g.Submit(true, leaf-4096, 8192, func() { done = true })
	g.Engine().Run()
	if !done {
		t.Fatal("boundary I/O never completed")
	}
	if w0, w1 := g.Devices()[0].Stats().HostWrites, g.Devices()[1].Stats().HostWrites; w0 != 1 || w1 != 1 {
		t.Fatalf("boundary write split %d/%d, want 1/1", w0, w1)
	}
}

// tieredGraph builds a tiny tiered volume: a 4-slot fast tier over a
// small backend, both async, so a handful of writes crosses the high
// watermark.
func tieredGraph(chunk int64) *Graph {
	return Build(Topology{Root: Volume{
		Kind:      Tiered,
		Chunk:     chunk,
		FastBytes: 4 * chunk,
		Children: []Layer{
			Stack{Kind: KernelAsync, Queue: Queue{Device: smallULL()}},
			Stack{Kind: KernelAsync, Queue: Queue{Device: smallULL()}},
		},
	}})
}

// runTiered submits one I/O and drains the engine.
func runTiered(t *testing.T, g *Graph, write bool, offset int64, length int) {
	t.Helper()
	done := false
	g.Submit(write, offset, length, func() { done = true })
	g.Engine().Run()
	if !done {
		t.Fatalf("tiered I/O at %d never completed", offset)
	}
}

func TestTieredAbsorbsWritesAndMigrates(t *testing.T) {
	const chunk = 64 << 10
	g := tieredGraph(chunk)
	fast, slow := g.Devices()[0], g.Devices()[1]

	// Two writes to distinct chunks: absorbed by the fast tier.
	runTiered(t, g, true, 0, 4096)
	runTiered(t, g, true, chunk, 4096)
	if fast.Stats().HostWrites != 2 || slow.Stats().HostWrites != 0 {
		t.Fatalf("writes not absorbed: fast=%d slow=%d", fast.Stats().HostWrites, slow.Stats().HostWrites)
	}
	// Reads of resident chunks hit the fast tier; unwritten chunks read
	// from the backend.
	runTiered(t, g, false, 0, 4096)
	runTiered(t, g, false, 10*chunk, 4096)
	vs := g.VolumeStats()[0]
	if vs.FastReads != 1 || vs.SlowReads != 1 {
		t.Fatalf("read routing: fast=%d slow=%d, want 1/1", vs.FastReads, vs.SlowReads)
	}

	// A third distinct chunk crosses the high watermark (3 of 4 slots):
	// migration drains allocation-order chunks to the backend until the
	// low watermark (2 slots).
	runTiered(t, g, true, 2*chunk, 4096)
	vs = g.VolumeStats()[0]
	if vs.Migrations == 0 {
		t.Fatalf("no migration after crossing the high watermark: %+v", vs)
	}
	if slow.Stats().HostWrites == 0 {
		t.Fatal("migration wrote nothing to the backend")
	}
	if vs.FastInUse > 2 {
		t.Fatalf("FastInUse = %d after migration, want <= low watermark 2", vs.FastInUse)
	}
	// Chunk 0 migrated first (allocation order): its reads now route to
	// the backend.
	before := g.VolumeStats()[0].SlowReads
	runTiered(t, g, false, 0, 4096)
	if got := g.VolumeStats()[0].SlowReads; got != before+1 {
		t.Fatalf("migrated chunk still reads from the fast tier (slow reads %d -> %d)", before, got)
	}
}

func TestTieredWriteAroundWhenFull(t *testing.T) {
	const chunk = 64 << 10
	g := Build(Topology{Root: Volume{
		Kind: Tiered, Chunk: chunk, FastBytes: 2 * chunk,
		LowWater: 0.5, HighWater: 1.0,
		Children: []Layer{
			Stack{Kind: KernelAsync, Queue: Queue{Device: smallULL()}},
			Stack{Kind: KernelAsync, Queue: Queue{Device: smallULL()}},
		},
	}})
	// Four writes to distinct chunks in one batch: the first two fill
	// the 2-slot tier (arming migration), the rest arrive before any
	// migration event has run and must write around, not stall.
	done := 0
	for i := int64(0); i < 4; i++ {
		g.Submit(true, i*chunk, 4096, func() { done++ })
	}
	g.Engine().Run()
	if done != 4 {
		t.Fatalf("completed %d of 4", done)
	}
	vs := g.VolumeStats()[0]
	if vs.FastWrites != 2 || vs.WriteAround != 2 {
		t.Fatalf("FastWrites=%d WriteAround=%d, want 2/2: %+v", vs.FastWrites, vs.WriteAround, vs)
	}
	if vs.Migrations == 0 || vs.FastInUse != 1 {
		t.Fatalf("migration did not drain to the low watermark: %+v", vs)
	}
}

func TestGraphDeterministic(t *testing.T) {
	run := func() string {
		g := stripedGraph(KernelAsync, 0, 2, 64<<10)
		var total int64
		done := 0
		for i := 0; i < 64; i++ {
			start := g.Engine().Now()
			g.Submit(i%3 == 0, int64(i)*4096, 4096, func() {
				total += int64(g.Engine().Now() - start)
				done++
			})
		}
		g.Engine().Run()
		g.Finalize()
		return fmt.Sprintf("%d/%d/%d", done, total, g.Engine().Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical graphs diverged: %s vs %s", a, b)
	}
}

func TestVolumeValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("empty volume", func() {
		Build(Topology{Root: Volume{Kind: Striped}})
	})
	expectPanic("tiered with one child", func() {
		Build(Topology{Root: Volume{Kind: Tiered, Children: []Layer{
			Stack{Kind: KernelAsync, Queue: Queue{Device: smallULL()}},
		}}})
	})
	expectPanic("nil root", func() { Build(Topology{}) })
	expectPanic("out-of-range I/O", func() {
		g := stripedGraph(KernelAsync, 0, 2, 64<<10)
		g.Submit(false, g.ExportedBytes(), 4096, func() {})
	})
}

// TestNestedVolumes checks composition depth: a stripe of concats
// lowers and serves I/O.
func TestNestedVolumes(t *testing.T) {
	sub := func() Layer {
		return Volume{Kind: Concat, Children: []Layer{
			Stack{Kind: KernelAsync, Queue: Queue{Device: smallULL()}},
			Stack{Kind: KernelAsync, Queue: Queue{Device: smallULL()}},
		}}
	}
	g := Build(Topology{Root: Volume{Kind: Striped, Chunk: 64 << 10, Children: []Layer{sub(), sub()}}})
	if len(g.Devices()) != 4 {
		t.Fatalf("nested graph has %d devices, want 4", len(g.Devices()))
	}
	done := 0
	for i := 0; i < 8; i++ {
		g.Submit(false, int64(i)*(64<<10), 4096, func() { done++ })
	}
	g.Engine().Run()
	if done != 8 {
		t.Fatalf("completed %d of 8", done)
	}
	// Lowering order: children before parents, root volume last.
	vs := g.VolumeStats()
	if len(vs) != 3 || vs[0].Kind != Concat || vs[2].Kind != Striped {
		t.Fatalf("volume stats order = %+v", vs)
	}
}

// TestQueueLeafSeedDecorrelation: identically configured members of a
// volume must not share a firmware jitter stream, while leaf 0 keeps
// its configured seed and explicitly distinct member seeds are honored
// as given.
func TestQueueLeafSeedDecorrelation(t *testing.T) {
	g := stripedGraph(KernelAsync, 0, 3, 64<<10)
	c0 := g.Devices()[0].Config()
	if c0.Seed != smallULL().Seed {
		t.Fatalf("leaf 0 seed changed: %#x", c0.Seed)
	}
	seen := map[uint64]bool{}
	for i, d := range g.Devices() {
		seed := d.Config().Seed
		if seen[seed] {
			t.Fatalf("leaf %d shares an earlier leaf's device seed %#x", i, seed)
		}
		seen[seed] = true
	}

	// Deliberately distinct seeds pass through untouched.
	mk := func(seed uint64) Layer {
		dev := smallULL()
		dev.Seed = seed
		return Stack{Kind: KernelAsync, Queue: Queue{Device: dev}}
	}
	g = Build(Topology{Root: Volume{Kind: Striped, Children: []Layer{mk(7), mk(9)}}})
	if s0, s1 := g.Devices()[0].Config().Seed, g.Devices()[1].Config().Seed; s0 != 7 || s1 != 9 {
		t.Fatalf("explicit member seeds perturbed: %#x, %#x", s0, s1)
	}
}
