package experiments

// Extension experiments built on the filesystem/page-cache layer
// (internal/fs): the host software tier the paper's Section IV argument
// is really about, measured as a share of end-to-end latency.
//
//   - ext-fsync: fsync p99 vs journal mode on the ULL and conventional
//     SSD — the journal commit protocol (records + barrier flushes)
//     costs several serialized device round trips, so on the ULL device
//     fsync latency is a large multiple of a raw write where on the
//     conventional SSD the media hides most of it.
//   - ext-buffered: buffered vs O_DIRECT 4KB random reads across the
//     host stacks — the page-cache copy/lookup/insert overhead is a
//     fixed host cost, so its share of total latency grows as the
//     device gets faster (the Tehrany et al. survey's catalog, measured).
//   - ext-cachewb: read tail vs write-back pressure — buffered writes
//     absorb into the dirty pool and the background flusher's batches
//     contend with foreground read misses at the device; the write
//     share and dirty-ratio dials shape the read tail.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func init() {
	register("ext-fsync", "Extension: fsync tail vs journal mode, ULL vs conventional SSD (filesystem layer)", planExtFsync)
	register("ext-buffered", "Extension: buffered vs O_DIRECT latency per host stack (page-cache overhead share)", planExtBuffered)
	register("ext-cachewb", "Extension: read tail vs write-back pressure (dirty ratio and write share)", planExtCacheWB)
}

// fsGraph builds a filesystem layer over one stack on one device.
func fsGraph(dev ssd.Config, stack core.StackKind, mode kernel.Mode, fcfg fs.Config, seed uint64) *core.Graph {
	d := topoDev(dev)
	d.Seed ^= seed
	return core.Build(core.Topology{
		Root: core.FS{
			Config: fcfg,
			Child:  core.Stack{Kind: stack, Mode: mode, Queue: core.Queue{Device: d}},
		},
		Precondition: precondFraction,
	})
}

// --- ext-fsync ---

// fsyncDevices pairs the two device classes; the race lane keeps one.
type fsyncDev struct {
	name string
	cfg  func() ssd.Config
}

func fsyncDevices() []fsyncDev {
	all := []fsyncDev{{"ull", ull}, {"nvme", nvme750}}
	if raceEnabled {
		return all[:1]
	}
	return all
}

func fsyncModes() []fs.JournalMode {
	if raceEnabled {
		// One journaled mode: it drives the commit protocol, the
		// barrier path, and the fsync plumbing end to end.
		return []fs.JournalMode{fs.OrderedJournal}
	}
	return []fs.JournalMode{fs.NoJournal, fs.OrderedJournal, fs.LogStructured}
}

func fsyncIOs(o Options) (cal, ios int) {
	if raceEnabled {
		return 50, 96
	}
	return o.scale(300, 2400), o.scale(960, 9600)
}

// fsyncPoint is one (device, journal mode) measurement.
type fsyncPoint struct {
	rawWrite             sim.Time // bare-stack QD1 4KB write mean
	fsMean, fsP50, fsP99 sim.Time
	writeMean            sim.Time // buffered write completion
	fsyncs               uint64
	barriersPerSync      float64
	jwritesPerSync       float64
}

// measureFsyncPoint runs a 4KB random writer that fsyncs every 8 writes
// through the filesystem layer, against the raw QD1 write latency of
// the same device as the yardstick.
func measureFsyncPoint(dev fsyncDev, mode fs.JournalMode, o Options, seed uint64) fsyncPoint {
	cal, ios := fsyncIOs(o)
	raw := system(topoDev(dev.cfg()), core.Stack{Kind: core.KernelAsync}, seed)
	rawRes := run(raw, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.RandWrite, BlockSize: 4096,
			TotalIOs: cal, WarmupIOs: cal / 10, Seed: seed,
		},
	})

	g := fsGraph(dev.cfg(), core.KernelAsync, 0, fs.Config{
		CacheBytes: 8 << 20,
		Journal:    mode,
	}, seed)
	res := workload.Run(g, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.RandWrite, BlockSize: 4096,
			TotalIOs: ios, WarmupIOs: ios / 10, SyncEvery: 8,
			Region: confineRegion(g), Seed: seed,
		},
		QueueDepth: 4,
	})
	st := g.FSStats()[0]
	p := fsyncPoint{
		rawWrite:  rawRes.Write.Mean(),
		fsMean:    res.Fsync.Mean(),
		fsP50:     res.Fsync.Percentile(50),
		fsP99:     res.Fsync.Percentile(99),
		writeMean: res.Write.Mean(),
		fsyncs:    st.Fsyncs,
	}
	if st.Fsyncs > 0 {
		p.barriersPerSync = float64(st.Barriers) / float64(st.Fsyncs)
		p.jwritesPerSync = float64(st.JournalWrites) / float64(st.Fsyncs)
	}
	return p
}

func planExtFsync(o Options) *Plan {
	devs := fsyncDevices()
	modes := fsyncModes()
	var shards []Shard
	for _, d := range devs {
		for _, m := range modes {
			d, m := d, m
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/%s", d.name, m),
				Run: func(seed uint64) any { return measureFsyncPoint(d, m, o, seed) },
			})
		}
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("ext-fsync",
				"Fsync latency vs journal mode, 4KB random writer with fsync every 8 writes (us)",
				"device", "journal", "raw write", "buffered write",
				"fsync mean", "fsync p50", "fsync p99", "fsync/raw",
				"barriers/sync", "jwrites/sync")
			i := 0
			for _, d := range devs {
				for _, m := range modes {
					p := res[i].(fsyncPoint)
					i++
					ratio := "n/a"
					if p.rawWrite > 0 {
						ratio = fmt.Sprintf("%.1fx", float64(p.fsMean)/float64(p.rawWrite))
					}
					t.AddRow(d.name, m.String(), us(p.rawWrite), us(p.writeMean),
						us(p.fsMean), us(p.fsP50), us(p.fsP99), ratio,
						fmt.Sprintf("%.1f", p.barriersPerSync),
						fmt.Sprintf("%.1f", p.jwritesPerSync))
				}
			}
			t.AddNote("fsync = dirty-page writeback + the journal commit protocol; data=ordered costs two journal records and two barrier flushes per sync, each a serialized device round trip — on the ULL device those host-ordered trips dwarf the raw write latency, which is the paper's host-software argument applied to durability")
			t.AddNote("buffered writes complete in memcpy time (the dirty pool absorbs them), so the writer's own latency collapses while fsync carries the whole durability bill; the log mode pays one barrier but owes segment cleaning instead")
			return []*metrics.Table{t}
		},
	}
}

// --- ext-buffered ---

// bufferedStacks is the per-stack sweep; the race lane keeps libaio.
type bufStack struct {
	name string
	kind core.StackKind
	mode kernel.Mode
}

func bufferedStacks() []bufStack {
	all := []bufStack{
		{"kernel-poll", core.KernelSync, kernel.Poll},
		{"libaio", core.KernelAsync, 0},
		{"spdk", core.SPDK, 0},
	}
	if raceEnabled {
		return all[1:2]
	}
	return all
}

func bufferedIOs(o Options) int {
	if raceEnabled {
		return 120
	}
	return o.scale(900, 10000)
}

// bufferedPoint is one (device, stack) paired measurement.
type bufferedPoint struct {
	direct   sim.Time // O_DIRECT 4KB random read, QD1
	buffered sim.Time // buffered miss: page read + insert + copy
	hit      sim.Time // buffered hit: pure host software
	sharePct float64  // (buffered-direct)/buffered
}

// measureBufferedPoint compares three paired runs on one seed: the bare
// stack (O_DIRECT), a cache-starved filesystem (every read misses), and
// a warmed cache (every read hits).
func measureBufferedPoint(dev fsyncDev, st bufStack, o Options, seed uint64) bufferedPoint {
	ios := bufferedIOs(o)
	direct := system(topoDev(dev.cfg()), core.Stack{Kind: st.kind, Mode: st.mode}, seed)
	dRes := run(direct, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.RandRead, BlockSize: 4096,
			TotalIOs: ios, WarmupIOs: ios / 10, Seed: seed,
		},
	})

	// Cache-starved: 1MiB of cache against the whole preconditioned
	// region — effectively every read misses.
	miss := fsGraph(dev.cfg(), st.kind, st.mode, fs.Config{CacheBytes: 1 << 20}, seed)
	mRes := workload.Run(miss, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.RandRead, BlockSize: 4096,
			TotalIOs: ios, WarmupIOs: ios / 10,
			Region: confineRegion(miss), Seed: seed,
		},
	})

	// Warmed: the job's region fits the cache; one sequential pass
	// faults it in, then the random reads all hit.
	hitG := fsGraph(dev.cfg(), st.kind, st.mode, fs.Config{CacheBytes: 8 << 20}, seed)
	region := int64(2 << 20)
	if raceEnabled {
		region = 512 << 10 // a smaller warm pass; hits are hits
	}
	warmIOs := int(region / 4096)
	workload.Run(hitG, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.SeqRead, BlockSize: 4096,
			TotalIOs: warmIOs, Region: region, Seed: seed,
		},
	})
	hRes := workload.Run(hitG, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.RandRead, BlockSize: 4096,
			TotalIOs: ios, WarmupIOs: ios / 10, Region: region, Seed: seed,
		},
	})

	p := bufferedPoint{
		direct:   dRes.All.Mean(),
		buffered: mRes.All.Mean(),
		hit:      hRes.All.Mean(),
	}
	if p.buffered > 0 {
		p.sharePct = float64(p.buffered-p.direct) / float64(p.buffered)
	}
	return p
}

func planExtBuffered(o Options) *Plan {
	devs := fsyncDevices()
	stacks := bufferedStacks()
	var shards []Shard
	for _, d := range devs {
		for _, st := range stacks {
			d, st := d, st
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/%s", d.name, st.name),
				Run: func(seed uint64) any { return measureBufferedPoint(d, st, o, seed) },
			})
		}
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("ext-buffered",
				"Buffered vs O_DIRECT 4KB random read, QD1 (us)",
				"device", "stack", "O_DIRECT", "buffered miss", "added", "fs share %", "cache hit")
			i := 0
			for _, d := range devs {
				for _, st := range stacks {
					p := res[i].(bufferedPoint)
					i++
					t.AddRow(d.name, st.name, us(p.direct), us(p.buffered),
						us(p.buffered-p.direct), pct(p.sharePct), us(p.hit))
				}
			}
			t.AddNote("the filesystem adds a fixed host bill per miss — lookup, page insert, and the user-copy memcpy — so its share of end-to-end latency grows as the device shrinks: the same buffered path that vanishes behind a conventional SSD read is a first-order cost on the ULL device")
			t.AddNote("a cache hit never touches the stack or device at all: pure host software, identical on every device — which is why buffered I/O still wins whenever the working set fits")
			return []*metrics.Table{t}
		},
	}
}

// --- ext-cachewb ---

// cwbPoint is one write-back-pressure measurement.
type cwbPoint struct {
	readMean, readP50 sim.Time
	readP99, readP999 sim.Time
	writeMean         sim.Time
	wbWrites, wbPages uint64
	writeThrough      uint64
	dirtyEnd          int64
}

// cwbSweep returns the (dirty ratio, write fraction) curve: a
// write-pressure sweep at the default ratio plus low/high ratio
// variants at the heavy write share.
func cwbSweep() [][2]float64 {
	if raceEnabled {
		return [][2]float64{{0.20, 0.50}}
	}
	return [][2]float64{
		{0.20, 0}, {0.20, 0.25}, {0.20, 0.50}, {0.20, 0.75},
		{0.05, 0.50}, {0.80, 0.50},
	}
}

func cwbIOs(o Options) int {
	if raceEnabled {
		return 160
	}
	return o.scale(2200, 22000)
}

// measureCWBPoint drives a buffered random mix: reads miss the small
// cache and hit the device, writes absorb into the dirty pool until the
// flusher's batches contend with the reads.
func measureCWBPoint(ratio, frac float64, o Options, seed uint64) cwbPoint {
	ios := cwbIOs(o)
	g := fsGraph(ull(), core.KernelAsync, 0, fs.Config{
		CacheBytes: 4 << 20,
		DirtyRatio: ratio,
	}, seed)
	res := workload.Run(g, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.RandRW, WriteFraction: frac, BlockSize: 4096, TotalIOs: ios, WarmupIOs: ios / 10,
			Region: confineRegion(g), Seed: seed,
		},
		QueueDepth: 4,
	})
	st := g.FSStats()[0]
	return cwbPoint{
		readMean:     res.Read.Mean(),
		readP50:      res.Read.Percentile(50),
		readP99:      res.Read.Percentile(99),
		readP999:     res.Read.Percentile(99.9),
		writeMean:    res.Write.Mean(),
		wbWrites:     st.WritebackWrites,
		wbPages:      st.WritebackPages,
		writeThrough: st.WriteThrough,
		dirtyEnd:     st.DirtyPages,
	}
}

func planExtCacheWB(o Options) *Plan {
	sweep := cwbSweep()
	var shards []Shard
	for _, pt := range sweep {
		pt := pt
		shards = append(shards, Shard{
			Key: fmt.Sprintf("dr%02.0f/wf%02.0f", pt[0]*100, pt[1]*100),
			Run: func(seed uint64) any { return measureCWBPoint(pt[0], pt[1], o, seed) },
		})
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("ext-cachewb",
				"Buffered read tail vs write-back pressure, ULL SSD libaio (us)",
				"dirty ratio", "write frac", "read mean", "read p50", "read p99", "read p99.9",
				"buffered write", "wb writes", "wb pages", "write-through", "dirty end")
			i := 0
			for _, pt := range sweep {
				p := res[i].(cwbPoint)
				i++
				t.AddRow(fmt.Sprintf("%.2f", pt[0]), fmt.Sprintf("%.2f", pt[1]),
					us(p.readMean), us(p.readP50), us(p.readP99), us(p.readP999),
					us(p.writeMean),
					fmt.Sprintf("%d", p.wbWrites), fmt.Sprintf("%d", p.wbPages),
					fmt.Sprintf("%d", p.writeThrough), fmt.Sprintf("%d", p.dirtyEnd))
			}
			t.AddNote("reads miss the deliberately small cache and go to the device; buffered writes cost only a memcpy until the dirty pool crosses its watermark and the background flusher's coalesced batches land on the same device — the read tail climbs with the write share even though no read ever got slower in software")
			t.AddNote("the dirty-ratio variants at the heavy write share trade flusher cadence for burst size: a low ratio drips small batches continuously, a high ratio lets bursts accumulate")
			return []*metrics.Table{t}
		},
	}
}
