package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func smallULL() ssd.Config {
	cfg := ssd.ZSSD()
	cfg.Channels = 4
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.PagesPerBlock = 16
	cfg.BlocksPerUnit = 16
	return cfg
}

func syncSys(mode kernel.Mode) *core.Graph {
	return core.Build(core.Topology{
		Root:         core.Stack{Kind: core.KernelSync, Mode: mode, Queue: core.Queue{Device: smallULL()}},
		Precondition: 1.0,
	})
}

func asyncSys() *core.Graph {
	return core.Build(core.Topology{
		Root:         core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: smallULL()}},
		Precondition: 1.0,
	})
}

func TestRunSeqReadCountsExact(t *testing.T) {
	res := Run(syncSys(kernel.Interrupt), Job{
		Spec: Spec{
			Pattern: SeqRead, BlockSize: 4096, TotalIOs: 100, WarmupIOs: 10,
		},
	})
	if res.IOs != 100 {
		t.Fatalf("measured IOs = %d, want 100", res.IOs)
	}
	if res.Read.Count() != 100 || res.Write.Count() != 0 {
		t.Fatalf("read/write counts = %d/%d", res.Read.Count(), res.Write.Count())
	}
	if res.Bytes != 100*4096 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	if res.Wall <= 0 || res.IOPS() <= 0 || res.BandwidthMBps() <= 0 {
		t.Fatal("derived rates not positive")
	}
}

func TestRunRandRWMix(t *testing.T) {
	res := Run(syncSys(kernel.Interrupt), Job{
		Spec: Spec{
			Pattern: RandRW, WriteFraction: 0.3, BlockSize: 4096,
			TotalIOs: 1000, Seed: 42,
		},
	})
	frac := float64(res.Write.Count()) / float64(res.IOs)
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("write fraction = %.3f, want ~0.30", frac)
	}
	if res.Read.Count()+res.Write.Count() != res.IOs {
		t.Fatal("histogram counts do not add up")
	}
}

func TestRunSequentialWrapsRegion(t *testing.T) {
	sys := syncSys(kernel.Interrupt)
	res := Run(sys, Job{Spec: Spec{
		Pattern: SeqRead, BlockSize: 4096, TotalIOs: 50,
		Region: 16 * 4096, // 16 blocks, so the cursor must wrap
	}})
	if res.IOs != 50 {
		t.Fatalf("IOs = %d", res.IOs)
	}
}

func TestRunDurationStop(t *testing.T) {
	sys := syncSys(kernel.Interrupt)
	res := Run(sys, Job{
		Spec: Spec{
			Pattern: RandRead, BlockSize: 4096, Duration: 2 * sim.Millisecond,
		},
	})
	if res.IOs == 0 {
		t.Fatal("no I/Os in duration-bounded run")
	}
	// The run must not extend far past the deadline (only the drain).
	if sys.Engine().Now() > 3*sim.Millisecond {
		t.Fatalf("run dragged to %v", sys.Engine().Now())
	}
}

func TestRunAsyncQueueDepth(t *testing.T) {
	resQ1 := Run(asyncSys(), Job{Spec: Spec{Pattern: RandRead, BlockSize: 4096, TotalIOs: 400, Seed: 1}, QueueDepth: 1})
	resQ8 := Run(asyncSys(), Job{Spec: Spec{Pattern: RandRead, BlockSize: 4096, TotalIOs: 400, Seed: 1}, QueueDepth: 8})
	if resQ8.Wall >= resQ1.Wall {
		t.Fatalf("QD8 wall %v not faster than QD1 %v", resQ8.Wall, resQ1.Wall)
	}
	if resQ8.BandwidthMBps() <= resQ1.BandwidthMBps() {
		t.Fatal("QD8 bandwidth not above QD1")
	}
}

func TestRunSyncRejectsQueueDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("sync stack with QD>1 did not panic")
		}
	}()
	Run(syncSys(kernel.Poll), Job{Spec: Spec{Pattern: SeqRead, BlockSize: 4096, TotalIOs: 10}, QueueDepth: 4})
}

// stopConditions are the bounds a job must reject: none at all, and
// negative ones, which used to count as a bound and never stop the run.
var stopConditions = []struct {
	name     string
	ios      int
	duration sim.Time
}{
	{"none", 0, 0},
	{"negative ios", -5, 0},
	{"negative duration", 0, -sim.Millisecond},
	{"both negative", -5, -sim.Millisecond},
}

// panicsWithin runs fn on its own goroutine and reports whether it
// panicked before the deadline, so a run that never stops fails the
// test instead of timing out the package.
func panicsWithin(d time.Duration, fn func()) bool {
	ch := make(chan bool, 1)
	go func() {
		defer func() { ch <- recover() != nil }()
		fn()
	}()
	select {
	case panicked := <-ch:
		return panicked
	case <-time.After(d):
		return false
	}
}

func TestRunNeedsStopCondition(t *testing.T) {
	for _, c := range stopConditions {
		job := Job{Spec: Spec{Pattern: SeqRead, BlockSize: 4096, TotalIOs: c.ios, Duration: c.duration}}
		if !panicsWithin(10*time.Second, func() { Run(syncSys(kernel.Interrupt), job) }) {
			t.Errorf("%s: job without a stop condition did not panic", c.name)
		}
	}
}

func TestRunSeriesRecording(t *testing.T) {
	res := Run(asyncSys(), Job{
		Spec: Spec{
			Pattern: RandWrite, BlockSize: 4096, TotalIOs: 300,
			SeriesBucket: 1 * sim.Millisecond,
		},
		QueueDepth: 4,
	})
	if res.WriteSeries == nil || res.WriteSeries.Len() == 0 {
		t.Fatal("write series not recorded")
	}
	var count uint64
	for _, p := range res.WriteSeries.Points() {
		count += p.Count
	}
	if count != res.IOs {
		t.Fatalf("series holds %d samples, want %d", count, res.IOs)
	}
}

func TestRunWarmupDiscard(t *testing.T) {
	res := Run(syncSys(kernel.Interrupt), Job{
		Spec: Spec{
			Pattern: SeqRead, BlockSize: 4096, TotalIOs: 20, WarmupIOs: 30,
		},
	})
	if res.IOs != 20 {
		t.Fatalf("measured %d, want 20 (warmup discarded)", res.IOs)
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	a := Run(syncSys(kernel.Interrupt), Job{Spec: Spec{Pattern: RandRead, BlockSize: 4096, TotalIOs: 200, Seed: 5}})
	b := Run(syncSys(kernel.Interrupt), Job{Spec: Spec{Pattern: RandRead, BlockSize: 4096, TotalIOs: 200, Seed: 5}})
	if a.All.Mean() != b.All.Mean() || a.Wall != b.Wall {
		t.Fatal("identical seeds produced different runs")
	}
	c := Run(syncSys(kernel.Interrupt), Job{Spec: Spec{Pattern: RandRead, BlockSize: 4096, TotalIOs: 200, Seed: 6}})
	if a.Wall == c.Wall && a.All.Mean() == c.All.Mean() {
		t.Fatal("different seeds produced byte-identical runs (suspicious)")
	}
}

func TestPatternHelpers(t *testing.T) {
	if !SeqRead.Reads() || SeqRead.Writes() {
		t.Error("SeqRead classification")
	}
	if !RandWrite.Writes() || RandWrite.Reads() {
		t.Error("RandWrite classification")
	}
	if !RandRW.Reads() || !RandRW.Writes() {
		t.Error("RandRW classification")
	}
	for _, p := range []Pattern{SeqRead, RandRead, SeqWrite, RandWrite, RandRW} {
		if p.String() == "" {
			t.Error("empty pattern name")
		}
	}
}

func TestStackKindString(t *testing.T) {
	if core.KernelSync.String() != "pvsync2" || core.KernelAsync.String() != "libaio" || core.SPDK.String() != "spdk" {
		t.Fatal("stack kind names")
	}
}

// stripedHost builds a 2-way striped volume of small ULL devices on the
// libaio stack — the workload engines must drive any Target-rooted
// Host, not just a one-device system.
func stripedHost() core.Host {
	return core.Build(core.Topology{
		Root: core.Volume{Kind: core.Striped, Children: []core.Layer{
			core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: smallULL()}},
			core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: smallULL()}},
		}},
		Precondition: 1.0,
	})
}

func TestRunOnTopologyHost(t *testing.T) {
	res := Run(stripedHost(), Job{
		Spec: Spec{
			Pattern: RandRead, BlockSize: 4096,
			TotalIOs: 400, WarmupIOs: 40, Seed: 9,
		},
		QueueDepth: 4,
	})
	if res.IOs != 400 {
		t.Fatalf("measured IOs = %d, want 400", res.IOs)
	}
	if res.Wall <= 0 || res.IOPS() <= 0 {
		t.Fatal("derived rates not positive")
	}
}

func TestRunOpenOnTopologyHost(t *testing.T) {
	res := RunOpen(stripedHost(), OpenJob{
		Spec: Spec{
			Pattern: RandRead, BlockSize: 4096,
			TotalIOs: 300, Seed: 5,
		},
		Arrival: Arrival{Kind: Poisson, Rate: 30000},
	})
	if res.Offered != 300 || res.IOs == 0 {
		t.Fatalf("offered %d, measured %d", res.Offered, res.IOs)
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d at a modest rate", res.Dropped)
	}
}

// TestRunTenantsOnSerialTopology: a volume over sync leaves is not
// Serial (the router queues per leaf), so multi-tenant runs that would
// panic on a bare pvsync2 system are legal on the composed one.
func TestRunTenantsOnSerialTopology(t *testing.T) {
	g := core.Build(core.Topology{
		Root: core.Volume{Kind: core.Striped, Children: []core.Layer{
			core.Stack{Kind: core.KernelSync, Mode: kernel.Poll, Queue: core.Queue{Device: smallULL()}},
			core.Stack{Kind: core.KernelSync, Mode: kernel.Poll, Queue: core.Queue{Device: smallULL()}},
		}},
		Precondition: 1.0,
	})
	results := RunTenants(g,
		OpenJob{
			Spec:    Spec{Name: "a", Pattern: RandRead, BlockSize: 4096, TotalIOs: 100, Seed: 1},
			Arrival: Arrival{Kind: FixedRate, Rate: 20000},
		},
		OpenJob{
			Spec:    Spec{Name: "b", Pattern: RandRead, BlockSize: 4096, TotalIOs: 100, Seed: 2},
			Arrival: Arrival{Kind: FixedRate, Rate: 20000},
		},
	)
	for i, r := range results {
		if r.Offered != 100 {
			t.Fatalf("tenant %d offered %d, want 100", i, r.Offered)
		}
	}
}

// TestRunSyncEvery: fsync=N semantics on the closed-loop engine — one
// fsync per N writes, each a real device flush, latencies in
// Result.Fsync, and none of it counted as I/O.
func TestRunSyncEvery(t *testing.T) {
	sys := asyncSys()
	res := Run(sys, Job{
		Spec: Spec{
			Pattern: RandWrite, BlockSize: 4096,
			TotalIOs: 100, SyncEvery: 10, Seed: 3,
		},
		QueueDepth: 4,
	})
	if res.IOs != 100 {
		t.Fatalf("measured IOs = %d, want 100 (fsyncs must not count)", res.IOs)
	}
	if res.Fsyncs != 10 {
		t.Fatalf("fsyncs = %d, want 10", res.Fsyncs)
	}
	if res.Fsync.Count() != 10 {
		t.Fatalf("fsync latencies recorded = %d, want 10", res.Fsync.Count())
	}
	if res.Fsync.Mean() <= 0 {
		t.Fatal("fsync latency not positive")
	}
	if got := sys.Devices()[0].Stats().HostFlushes; got != 10 {
		t.Fatalf("device flushes = %d, want 10", got)
	}
}

// TestRunSyncEverySerialStack: on pvsync2 the fsync takes the single
// slot like any other syscall — no overlap panic.
func TestRunSyncEverySerialStack(t *testing.T) {
	res := Run(syncSys(kernel.Poll), Job{
		Spec: Spec{
			Pattern: SeqWrite, BlockSize: 4096,
			TotalIOs: 40, SyncEvery: 8, Seed: 4,
		},
	})
	if res.Fsyncs != 5 {
		t.Fatalf("fsyncs = %d, want 5", res.Fsyncs)
	}
}

// TestRunOpenSyncEvery: the open-loop engine chases every Nth write
// arrival with an fsync that competes for admission but is never
// dropped, and the run stays deterministic.
func TestRunOpenSyncEvery(t *testing.T) {
	run := func() *OpenResult {
		return RunOpen(asyncSys(), OpenJob{
			Spec: Spec{
				Pattern: RandWrite, BlockSize: 4096,
				TotalIOs: 200, SyncEvery: 20, Seed: 6,
			},
			Arrival:     Arrival{Kind: Poisson, Rate: 50000},
			MaxInFlight: 4,
		})
	}
	res := run()
	if res.Fsyncs != 10 {
		t.Fatalf("fsyncs = %d, want 10", res.Fsyncs)
	}
	if res.Fsync.Count() != 10 {
		t.Fatalf("fsync latencies recorded = %d, want 10", res.Fsync.Count())
	}
	if res.Offered != 200 || res.Admitted != 200 {
		t.Fatalf("offered/admitted = %d/%d, want 200/200 (fsyncs excluded)", res.Offered, res.Admitted)
	}
	a, b := run(), run()
	if a.Fsync.Summarize() != b.Fsync.Summarize() || a.All.Summarize() != b.All.Summarize() {
		t.Fatal("SyncEvery runs diverged for a fixed seed")
	}
}

func TestResultSurfacesDeviceWear(t *testing.T) {
	res := Run(asyncSys(), Job{
		Spec: Spec{
			Pattern: RandWrite, BlockSize: 4096, TotalIOs: 400, Seed: 17,
		},
		QueueDepth: 8,
	})
	if len(res.Wear) != 1 {
		t.Fatalf("Wear reports %d devices, want 1", len(res.Wear))
	}
	w := res.Wear[0]
	if w.HostSlots == 0 {
		t.Fatal("HostSlots = 0 after 400 direct writes")
	}
	if w.Erases.Max < w.Erases.Min {
		t.Fatalf("erase stats inverted: %+v", w.Erases)
	}
	if wa := w.WriteAmp(); wa < 1 {
		t.Fatalf("WriteAmp = %.3f, want >= 1 once host writes landed", wa)
	}
	if (ssd.WearReport{}).WriteAmp() != 0 {
		t.Fatal("WriteAmp of an idle device should be 0")
	}
}

// TestKeyedJobRejectsRegion: Region bounds a block job's byte extent; a
// keyed job sizes its extent with Keyspace.Keys, so setting both must
// panic instead of Region being silently ignored.
func TestKeyedJobRejectsRegion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a keyed job with Region set should panic")
		}
	}()
	newOpSource(nil, &Spec{
		Keyspace:  Keyspace{Keys: 64},
		BlockSize: 512,
		Region:    4096,
	}, sim.NewRNG(1))
}
