package repro

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper (regenerating it at quick scale and reporting its headline metric
// where one exists), ablation benchmarks for the ULL device's features
// (suspend/resume, super-channels, write buffer, hybrid polling), and the
// simulator-speed benchmarks README "Simulator performance" describes.
// Run with:
//
//	go test -bench=. -benchmem
//
// Absolute throughput of these benchmarks measures the simulator, not the
// hardware; the interesting outputs are the custom metrics (us latencies,
// percentage reductions) and the regenerated tables from cmd/ullsim.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/kv"
	"repro/internal/nbd"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/uring"
	"repro/internal/workload"
)

// benchExperiment regenerates one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	opts := experiments.Options{Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(opts)
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }
func BenchmarkFig4a(b *testing.B)  { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)  { benchExperiment(b, "fig4b") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7a(b *testing.B)  { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { benchExperiment(b, "fig7b") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "fig23") }

// --- Ablations: turn the paper's architectural features off one at a
// time and report the read latency of the interference workload (the
// metric those features protect). ---

// oneDevice builds stack st over dev, preconditioned to 0.9, and
// returns it with the preconditioned region aligned down to 1MiB.
func oneDevice(st core.Stack, dev ssd.Config) (*core.Graph, int64) {
	st.Queue.Device = dev
	g := core.Build(core.Topology{Root: st, Precondition: 0.9})
	return g, int64(0.9*float64(g.ExportedBytes())) >> 20 << 20
}

// interferenceReadLatency measures mean read latency under a 40%-write
// random mix on a preconditioned device.
func interferenceReadLatency(dev ssd.Config) sim.Time {
	sys, region := oneDevice(core.Stack{Kind: core.KernelAsync}, dev)
	res := workload.Run(sys, workload.Job{
		Spec: workload.Spec{
			Pattern:       workload.RandRW,
			WriteFraction: 0.4,
			BlockSize:     4096,
			TotalIOs:      4000,
			WarmupIOs:     400,
			Region:        region,
			Seed:          42,
		},
		QueueDepth: 4,
	})
	return res.Read.Mean()
}

func BenchmarkAblationSuspendResume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := ssd.ZSSD()
		off := ssd.ZSSD()
		off.NAND.ProgramSuspend = false
		off.NAND.EraseSuspend = false
		latOn := interferenceReadLatency(on)
		latOff := interferenceReadLatency(off)
		b.ReportMetric(latOn.Micros(), "us-with-suspend")
		b.ReportMetric(latOff.Micros(), "us-without-suspend")
	}
}

func BenchmarkAblationSuperChannel(b *testing.B) {
	read4K := func(cfg ssd.Config) sim.Time {
		sys, region := oneDevice(core.Stack{Kind: core.KernelSync, Mode: kernel.Interrupt}, cfg)
		res := workload.Run(sys, workload.Job{
			Spec: workload.Spec{
				Pattern: workload.RandRead, BlockSize: 4096,
				TotalIOs: 2000, WarmupIOs: 200, Region: region, Seed: 7,
			},
		})
		return res.All.Mean()
	}
	for i := 0; i < b.N; i++ {
		paired := ssd.ZSSD()
		flat := ssd.ZSSD()
		flat.SuperChannels = false
		flat.SplitDMACost = 0
		b.ReportMetric(read4K(paired).Micros(), "us-superchannel")
		b.ReportMetric(read4K(flat).Micros(), "us-flat")
	}
}

func BenchmarkAblationWriteBuffer(b *testing.B) {
	writeLat := func(bufBytes int64) sim.Time {
		cfg := ssd.NVMe750()
		cfg.WriteBufferBytes = bufBytes
		sys, region := oneDevice(core.Stack{Kind: core.KernelAsync}, cfg)
		res := workload.Run(sys, workload.Job{
			Spec: workload.Spec{
				Pattern: workload.RandWrite, BlockSize: 4096,
				TotalIOs: 4000, WarmupIOs: 400, Region: region, Seed: 11,
			},
			QueueDepth: 8,
		})
		return res.Write.Mean()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(writeLat(1<<20).Micros(), "us-1MB-buffer")
		b.ReportMetric(writeLat(8<<20).Micros(), "us-8MB-buffer")
		b.ReportMetric(writeLat(64<<20).Micros(), "us-64MB-buffer")
	}
}

func BenchmarkAblationHybridSleep(b *testing.B) {
	hybridLat := func(factor float64) sim.Time {
		costs := kernel.DefaultCosts()
		costs.HybridSleepFactor = factor
		sys, region := oneDevice(core.Stack{Kind: core.KernelSync, Mode: kernel.Hybrid, Kernel: &costs}, ssd.ZSSD())
		res := workload.Run(sys, workload.Job{
			Spec: workload.Spec{
				Pattern: workload.RandRead, BlockSize: 4096,
				TotalIOs: 3000, WarmupIOs: 300, Region: region, Seed: 13,
			},
		})
		return res.All.Mean()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(hybridLat(0.25).Micros(), "us-sleep25")
		b.ReportMetric(hybridLat(0.5).Micros(), "us-sleep50")
		b.ReportMetric(hybridLat(0.75).Micros(), "us-sleep75")
	}
}

// BenchmarkSimulatorThroughput reports raw simulator speed: simulated
// 4KB random reads per second of wall time on the ULL device.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sys, region := oneDevice(core.Stack{Kind: core.KernelAsync}, ssd.ZSSD())
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	rng := sim.NewRNG(3)
	var issue func()
	var donefn func()
	donefn = func() {
		done++
		if done < b.N {
			issue()
		}
	}
	issue = func() {
		off := rng.Int63n(region/4096) * 4096
		sys.Submit(false, off, 4096, donefn)
	}
	issue()
	sys.Engine().Run()
}

// BenchmarkDeviceSetup reports what every sweep point pays before its
// first I/O: building a device and preconditioning it to 0.9. The
// preconditioned mapping is a closed form, so allocs/op gates that
// set-up stays proportional to blocks, not to mapping slots.
func BenchmarkDeviceSetup(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  ssd.Config
	}{{"zssd", ssd.ZSSD()}, {"nvme750", ssd.NVMe750()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ssd.NewDevice(c.cfg, sim.NewEngine()).Precondition(0.9)
			}
		})
	}
}

// BenchmarkBuildZSSD reports what a sweep point pays in core.Build: a
// libaio stack over a Z-SSD preconditioned to 0.9. Mapping storage
// follows what a run writes, and the host CID table follows the CIDs it
// issues, so a build allocates neither. The bench gate checks ns/op and
// allocs/op only; TestBuildAllocatesNoMapping's TotalAlloc bound is what
// fails if eager mapping storage comes back.
func BenchmarkBuildZSSD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oneDevice(core.Stack{Kind: core.KernelAsync}, ssd.ZSSD())
	}
}

// BenchmarkDeviceGC reports the device's cost per host write in GC
// steady state: random 4 KiB overwrites at QD8 on a Z-SSD preconditioned
// to 0.9, measured after a warm-up long enough that every flash unit is
// collecting. One op is one write plus its share of buffer flushes, page
// programs, victim migrations and erases. GC runs are pooled per unit,
// so allocs/op gates the whole write and GC path at zero.
func BenchmarkDeviceGC(b *testing.B) {
	eng := sim.NewEngine()
	dev := ssd.NewDevice(ssd.ZSSD(), eng)
	dev.Precondition(0.9)
	slots := int64(0.9*float64(dev.ExportedBytes())) / 4096
	rng := sim.NewRNG(9)
	issued, target := 0, 0
	write := func(r *ssd.Request) {
		issued++
		r.Offset = rng.Int63n(slots) * 4096
		dev.Submit(r)
	}
	reqs := make([]ssd.Request, 8)
	for i := range reqs {
		r := &reqs[i]
		r.Write, r.Len = true, 4096
		r.Done = func(sim.Time) {
			if issued < target {
				write(r)
			}
		}
	}
	run := func(n int) {
		target = issued + n
		for i := range reqs {
			if issued < target {
				write(&reqs[i])
			}
		}
		eng.Run()
	}
	run(200000)
	if dev.Stats().GCMigrations == 0 {
		b.Fatal("warm-up never reached GC")
	}
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkUringSubmit reports the ring stack's simulator cost:
// simulated 4KB random reads per second of wall time through the
// io_uring stack at QD16 — SQE prep, batched ring enters, CQE reaps,
// and MSI delivery all on the hot path. Steady state is pooled, so
// allocs/op gates the ring path alongside the event core's.
func BenchmarkUringSubmit(b *testing.B) {
	sys, region := oneDevice(core.Stack{Kind: core.IOUring, Uring: &uring.Config{Mode: uring.Interrupt}}, ssd.ZSSD())
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	inflight := 0
	rng := sim.NewRNG(3)
	var issue func()
	var donefn func()
	donefn = func() {
		done++
		inflight--
		if done+inflight < b.N {
			issue()
		}
	}
	issue = func() {
		off := rng.Int63n(region/4096) * 4096
		inflight++
		sys.Submit(false, off, 4096, donefn)
	}
	for i := 0; i < 16 && i < b.N; i++ {
		issue()
	}
	sys.Engine().Run()
}

// BenchmarkCoreSchedule measures the per-core arbiter alone: one
// claim+hold cycle per op on a contended core ("claim", the run-queue
// path), one interrupt wakeup per op onto a busy core ("wake", the
// migration path), and the same claim+hold on a one-core set ("solo" —
// the non-arbitrating legacy lowering, which must stay free). All three
// must be zero-alloc; scheduler changes show up here directly instead
// of only through the end-to-end stacks.
func BenchmarkCoreSchedule(b *testing.B) {
	b.Run("claim", func(b *testing.B) {
		cs := cpu.NewCoreSet(2)
		p := cs.Proc(0)
		b.ReportAllocs()
		now := sim.Time(0)
		for i := 0; i < b.N; i++ {
			start := p.Claim(now)
			p.Hold(start, start+5*sim.Microsecond)
			now = start + sim.Microsecond // next claim finds the core held
		}
	})
	b.Run("wake", func(b *testing.B) {
		cs := cpu.NewCoreSet(2)
		p := cs.Proc(0)
		b.ReportAllocs()
		now := sim.Time(0)
		for i := 0; i < b.N; i++ {
			p.Hold(now, now+2*sim.Microsecond)
			now += sim.Microsecond + p.Wake(now+sim.Microsecond)
		}
	})
	b.Run("solo", func(b *testing.B) {
		cs := cpu.NewCoreSet(1)
		p := cs.Proc(0)
		b.ReportAllocs()
		now := sim.Time(0)
		for i := 0; i < b.N; i++ {
			start := p.Claim(now)
			p.Hold(start, start+5*sim.Microsecond)
			now = start + sim.Microsecond
		}
	})
}

// BenchmarkStripedVolume reports the routing cost of the volume layer:
// simulated 4KB random reads per second of wall time through a 4-wide
// RAID-0 stripe of ULL devices on the libaio stack (one queue pair and
// stack instance per member). Steady-state routing is pooled, so
// allocs/op gates the router's hot path alongside the event core's.
func BenchmarkStripedVolume(b *testing.B) {
	children := make([]core.Layer, 4)
	for i := range children {
		children[i] = core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: ssd.ZSSD()}}
	}
	g := core.Build(core.Topology{
		Root:         core.Volume{Kind: core.Striped, Children: children},
		Precondition: 0.9,
	})
	region := int64(0.9*float64(g.ExportedBytes())) >> 20 << 20
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	rng := sim.NewRNG(3)
	var issue func()
	var donefn func()
	donefn = func() {
		done++
		if done < b.N {
			issue()
		}
	}
	issue = func() {
		off := rng.Int63n(region/4096) * 4096
		g.Submit(false, off, 4096, donefn)
	}
	issue()
	g.Engine().Run()
}

// BenchmarkFSBufferedRead reports the page-cache hit path's simulator
// cost: 4KB random reads over a fully warmed cache on the filesystem
// layer. Every read is a hit — a map lookup, LRU relinks, CPU charges,
// and one pooled event — so allocs/op gates the hot path at zero
// alongside the event core's.
func BenchmarkFSBufferedRead(b *testing.B) {
	g := core.Build(core.Topology{
		Root: core.FS{
			Config: fs.Config{CacheBytes: 64 << 20, DirtyExpire: -1},
			Child:  core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: ssd.ZSSD()}},
		},
		Precondition: 0.9,
	})
	region := int64(16 << 20)
	// Fault the region in, a bounded batch at a time (the NVMe queue
	// holds 1024 entries).
	for off := int64(0); off < region; {
		pending := 0
		for ; off < region && pending < 512; off += 4096 {
			g.Submit(false, off, 4096, func() {})
			pending++
		}
		g.Engine().Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	rng := sim.NewRNG(3)
	var issue func()
	var donefn func()
	donefn = func() {
		done++
		if done < b.N {
			issue()
		}
	}
	issue = func() {
		off := rng.Int63n(region/4096) * 4096
		g.Submit(false, off, 4096, donefn)
	}
	issue()
	g.Engine().Run()
}

// BenchmarkFSFsync reports the cost of one buffered write + ordered-
// journal fsync cycle through the filesystem layer: dirty-page
// writeback, two journal records, and two barrier flushes per
// iteration, all simulated.
func BenchmarkFSFsync(b *testing.B) {
	g := core.Build(core.Topology{
		Root: core.FS{
			Config: fs.Config{CacheBytes: 8 << 20, Journal: fs.OrderedJournal, DirtyExpire: -1},
			Child:  core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: ssd.ZSSD()}},
		},
		Precondition: 0.9,
	})
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var cycle func()
	var wdone, sdone func()
	sdone = func() {
		done++
		if done < b.N {
			cycle()
		}
	}
	wdone = func() { g.Sync(sdone) }
	cycle = func() {
		off := int64(done%1024) * 4096
		g.Submit(true, off, 4096, wdone)
	}
	cycle()
	g.Engine().Run()
}

// BenchmarkEventSchedule measures the event core alone, without any
// device model on top: one schedule+fire round trip per op ("fire"),
// and one schedule+cancel+reap round trip ("cancel" — canceled events
// are reaped lazily, so the cancel path still pays a pop). Scheduler
// changes show up here directly instead of only through the end-to-end
// benchmarks above.
func BenchmarkEventSchedule(b *testing.B) {
	b.Run("fire", func(b *testing.B) {
		eng := sim.NewEngine()
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.After(780, fn)
			eng.Run()
		}
	})
	b.Run("cancel", func(b *testing.B) {
		eng := sim.NewEngine()
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.After(780, fn).Cancel()
			eng.Run()
		}
	})
}

// BenchmarkNBDModel reports the cost of one simulated NBD file read.
func BenchmarkNBDModel(b *testing.B) {
	m := nbd.NewModel(nbd.SPDKNBD(ssd.ZSSD()))
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var issue func()
	var donefn func()
	donefn = func() {
		done++
		if done < b.N {
			issue()
		}
	}
	issue = func() {
		m.FileRead(int64(done)*4096, 4096, donefn)
	}
	issue()
	m.Engine().Run()
}

// benchKVStore composes the serving stack the KV benchmarks drive: LSM
// store over filesystem + page cache over libaio on the ULL SSD, with a
// preloaded keyspace.
func benchKVStore() *kv.Store {
	g := core.Build(core.Topology{
		Root: core.FS{
			Config: fs.Config{CacheBytes: 16 << 20, Journal: fs.OrderedJournal},
			Child:  core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: ssd.ZSSD()}},
		},
		Precondition: 0.9,
	})
	s := kv.New(g, kv.Config{
		MemtableBytes: 256 << 10,
		BlockBytes:    8 << 10,
		CacheBytes:    2 << 20,
	})
	s.Preload(65536, 1024)
	return s
}

// BenchmarkKVGet reports the wall-clock cost of simulating one LSM get:
// memtable probes, block-cache lookup, and an SSTable block read
// through the filesystem and device on a miss.
func BenchmarkKVGet(b *testing.B) {
	s := benchKVStore()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	rng := sim.NewRNG(5)
	var issue func()
	var donefn func()
	donefn = func() {
		done++
		if done < b.N {
			issue()
		}
	}
	issue = func() {
		s.Get(rng.Int63n(65536), 1024, donefn)
	}
	issue()
	s.Engine().Run()
}

// BenchmarkKVPut reports the cost of one LSM put: WAL group commit
// (sequential write + journaled fsync), memtable insert, and the
// amortized share of flush and compaction I/O it triggers.
func BenchmarkKVPut(b *testing.B) {
	s := benchKVStore()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	rng := sim.NewRNG(6)
	var issue func()
	var donefn func()
	donefn = func() {
		done++
		if done < b.N {
			issue()
		}
	}
	issue = func() {
		s.Put(rng.Int63n(65536), 1024, donefn)
	}
	issue()
	s.Engine().Run()
}

// BenchmarkProbeDisabled measures the observability tax paid by every
// layer when probes are off: the full per-I/O hook sequence (register
// hand-off, phase marks, span open/close) against a nil *probe.Probe.
// This is the configuration every experiment and benchmark runs in, so
// the contract is strict: 0 allocs/op and single-digit nanoseconds.
// The //ullvet:noalloc annotations on the hook methods reference this
// benchmark; scripts/bench.sh cross-checks the two.
func BenchmarkProbeDisabled(b *testing.B) {
	var p *probe.Probe
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := p.Start(probe.KRead, 0, sim.Time(i))
		sp.To(probe.PSubmit, sim.Time(i)+100)
		p.SetSpan(sp)
		sp2 := p.TakeSpan()
		sp2.Add(probe.PQueue, 50)
		sp2.To(probe.PDevice, sim.Time(i)+900)
		sp2.Tail(probe.PComplete)
		p.End(sp2, sim.Time(i)+1000)
	}
}

// BenchmarkProbeSpan measures the same hook sequence with breakdowns
// and the trace ring enabled: span pool pop, phase marks, histogram
// update, ladder event push, pool push. Spans are pooled, so the
// steady state stays allocation-free; the cost bounds the probes-on
// slowdown per I/O.
func BenchmarkProbeSpan(b *testing.B) {
	p := probe.New(probe.Config{Breakdown: true, Trace: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := p.Start(probe.KRead, 0, sim.Time(i))
		sp.To(probe.PSubmit, sim.Time(i)+100)
		p.SetSpan(sp)
		sp2 := p.TakeSpan()
		sp2.Add(probe.PQueue, 50)
		sp2.To(probe.PDevice, sim.Time(i)+900)
		sp2.Tail(probe.PComplete)
		p.End(sp2, sim.Time(i)+1000)
	}
}
