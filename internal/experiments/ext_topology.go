package experiments

// Extension experiments built on the layered topology API: the paper's
// host-stack layering argument (Sections III-V) extended past one
// device. ext-stripe sweeps RAID-0 stripe width per host stack and
// measures the IOPS scaling curve plus the tail — whether a stack's
// software costs let it ride N devices' parallelism. ext-tier puts a
// Z-SSD write-absorbing tier in front of a conventional NVMe-750-class
// backend and sweeps write pressure: once the tier crosses its high
// watermark, watermark-driven migration (read fast, rewrite slow)
// contends with host reads, and the read tail shows it — Section V's
// device-internal interference story lifted to a multi-device volume.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func init() {
	register("ext-stripe", "Extension: IOPS and tail vs stripe width per host stack (striped Z-SSD volume)", planExtStripe)
	register("ext-tier", "Extension: read tail vs tier-migration pressure (Z-SSD tier over NVMe SSD)", planExtTier)
}

// stripeChunk is the stripe unit: 64KiB, the md-raid default, so 4KB
// I/Os never split and the sweep measures routing, not fragmentation.
const stripeChunk = 64 << 10

// topoDev shrinks a member device's geometry under the race detector:
// the race lane checks the router's code paths and determinism, and a
// full device's multi-million-slot precondition would dominate its
// cost for nothing.
func topoDev(cfg ssd.Config) ssd.Config {
	if raceEnabled {
		cfg.WaysPerChannel = 2
		cfg.BlocksPerUnit = 16
	}
	return cfg
}

// stripeStack is one host stack of the width sweep.
type stripeStack struct {
	name string
	leaf func(dev func() core.Queue) core.Layer
}

func stripeStacks() []stripeStack {
	all := []stripeStack{
		{"kernel-poll", func(q func() core.Queue) core.Layer {
			return core.Stack{Kind: core.KernelSync, Mode: kernel.Poll, Queue: q()}
		}},
		{"libaio", func(q func() core.Queue) core.Layer {
			return core.Stack{Kind: core.KernelAsync, Queue: q()}
		}},
		{"spdk", func(q func() core.Queue) core.Layer {
			return core.Stack{Kind: core.SPDK, Queue: q()}
		}},
	}
	if raceEnabled {
		// One stack rides the race lane: it checks the router code path
		// and determinism, not the per-stack constants.
		return all[1:2]
	}
	return all
}

// stripeWidths is the member-count sweep. The race lane trims it (the
// detector costs ~10x and each extra member is one more full device
// build per shard).
func stripeWidths() []int {
	if raceEnabled {
		// One two-member point: it drives the multi-leaf routing path;
		// the scaling curve belongs to the non-race lanes.
		return []int{2}
	}
	return []int{1, 2, 4, 8}
}

func stripeIOs(o Options) int {
	if raceEnabled {
		return 250
	}
	return o.scale(1200, 16000)
}

// stripeGraph builds a width-way RAID-0 stripe of full Z-SSDs behind
// one stack kind, every member on its own queue pair.
func stripeGraph(st stripeStack, width int, seed uint64) *core.Graph {
	children := make([]core.Layer, width)
	for i := range children {
		children[i] = st.leaf(func() core.Queue {
			dev := topoDev(ull())
			dev.Seed ^= seed
			return core.Queue{Device: dev}
		})
	}
	return core.Build(core.Topology{
		Root:         core.Volume{Kind: core.Striped, Chunk: stripeChunk, Children: children},
		Precondition: precondFraction,
	})
}

// stripePoint is one (stack, width) measurement.
type stripePoint struct {
	iops                 float64
	mean, p50, p99, p999 sim.Time
	queuedPct            float64
}

// measureStripePoint drives 4KB random reads at a per-member queue
// depth of 2 — the offered concurrency grows with the stripe, the way
// a server adds worker threads as it adds namespaces — and reports
// IOPS and the latency distribution.
func measureStripePoint(st stripeStack, width int, o Options, seed uint64) stripePoint {
	g := stripeGraph(st, width, seed)
	ios := stripeIOs(o)
	res := workload.Run(g, workload.Job{
		Spec: workload.Spec{
			Pattern:   workload.RandRead,
			BlockSize: 4096,
			TotalIOs:  ios,
			WarmupIOs: ios / 10,
			Region:    confineRegion(g),
			Seed:      seed,
		},
		QueueDepth: 2 * width,
	})
	vs := g.VolumeStats()[0]
	return stripePoint{
		iops:      res.IOPS(),
		mean:      res.All.Mean(),
		p50:       res.All.Percentile(50),
		p99:       res.All.Percentile(99),
		p999:      res.All.Percentile(99.9),
		queuedPct: float64(vs.Queued) / float64(vs.ChildIOs),
	}
}

func planExtStripe(o Options) *Plan {
	stacks := stripeStacks()
	widths := stripeWidths()
	var shards []Shard
	for _, st := range stacks {
		for _, w := range widths {
			st, w := st, w
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/w%d", st.name, w),
				Run: func(seed uint64) any { return measureStripePoint(st, w, o, seed) },
			})
		}
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			// The scaling base is the narrowest width in the sweep (1,
			// except under the race build's trimmed sweep).
			t := metrics.NewTable("ext-stripe",
				"Striped Z-SSD volume: 4KB random read vs stripe width (us)",
				"stack", "width", "kIOPS", fmt.Sprintf("vs w%d", widths[0]),
				"mean", "p50", "p99", "p99.9", "queued %")
			i := 0
			for _, st := range stacks {
				base := 0.0
				for _, w := range widths {
					p := res[i].(stripePoint)
					i++
					if base == 0 {
						base = p.iops
					}
					t.AddRow(st.name, fmt.Sprintf("%d", w), p.iops/1e3,
						fmt.Sprintf("%.2fx", p.iops/base),
						us(p.mean), us(p.p50), us(p.p99), us(p.p999), pct(p.queuedPct))
				}
			}
			t.AddNote("RAID-0 over N Z-SSDs, 64KiB stripe unit, one queue pair and one stack instance per member, per-member queue depth 2; the composed volume is one Target, so the same workload engine drives every width")
			t.AddNote("scaling rides the stack's software costs: the synchronous kernel path serializes per member (the router queues behind busy pvsync2 leaves — 'queued %%'), while libaio and SPDK keep every member's queue fed")
			return []*metrics.Table{t}
		},
	}
}

// Tier experiment parameters: a 64KiB-chunk Z-SSD tier capped small
// enough that the quick-scale write stream crosses the migration
// watermarks mid-run.
const tierChunk = 64 << 10

// tierFastBytes sizes the fast tier with the I/O count, so the lowest
// write share stays under the high watermark (the zero-migration
// baseline row) at quick and full scale alike, while the upper shares
// cross it mid-run.
func tierFastBytes(o Options) int64 {
	if raceEnabled {
		return 2 << 20 // 32 slots: a couple hundred I/Os cross the watermark
	}
	return int64(o.scale(16, 128)) << 20 // 256 / 2048 slots
}

func tierIOs(o Options) int {
	if raceEnabled {
		return 250
	}
	return o.scale(2200, 30000)
}

// tierWriteFracs is the migration-pressure dial: the write share of a
// random mixed workload. The lowest point stays under the high
// watermark (no migration, the baseline tail); the upper points push
// the tier into continuous migration.
func tierWriteFracs() []float64 {
	if raceEnabled {
		return []float64{0.50}
	}
	return []float64{0.05, 0.20, 0.35, 0.50, 0.65}
}

// tierGraph builds the tiered volume: Z-SSD write tier in front of an
// NVMe-750-class backend, both on libaio, watermarks at the defaults.
func tierGraph(seed uint64, fastBytes int64) *core.Graph {
	fast := topoDev(ull())
	fast.Seed ^= seed
	slow := topoDev(nvme750())
	slow.Seed ^= seed
	return core.Build(core.Topology{
		Root: core.Volume{
			Kind:      core.Tiered,
			Chunk:     tierChunk,
			FastBytes: fastBytes,
			Children: []core.Layer{
				core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: fast}},
				core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: slow}},
			},
		},
		Precondition: precondFraction,
	})
}

// tierPoint is one write-pressure measurement.
type tierPoint struct {
	readMean, readP50    sim.Time
	readP99, readP999    sim.Time
	migrations           uint64
	migratedMB           float64
	writeAround          uint64
	fastHitPct           float64
	writeMean, writeP999 sim.Time
}

func measureTierPoint(frac float64, o Options, seed uint64) tierPoint {
	g := tierGraph(seed, tierFastBytes(o))
	ios := tierIOs(o)
	res := workload.Run(g, workload.Job{
		Spec: workload.Spec{
			Pattern:       workload.RandRW,
			WriteFraction: frac,
			BlockSize:     4096,
			TotalIOs:      ios,
			WarmupIOs:     ios / 10,
			Region:        confineRegion(g),
			Seed:          seed,
		},
		QueueDepth: 4,
	})
	vs := g.VolumeStats()[0]
	reads := vs.FastReads + vs.SlowReads
	hit := 0.0
	if reads > 0 {
		hit = float64(vs.FastReads) / float64(reads)
	}
	return tierPoint{
		readMean:    res.Read.Mean(),
		readP50:     res.Read.Percentile(50),
		readP99:     res.Read.Percentile(99),
		readP999:    res.Read.Percentile(99.9),
		migrations:  vs.Migrations,
		migratedMB:  float64(vs.MigratedBytes) / 1e6,
		writeAround: vs.WriteAround,
		fastHitPct:  hit,
		writeMean:   res.Write.Mean(),
		writeP999:   res.Write.Percentile(99.9),
	}
}

func planExtTier(o Options) *Plan {
	fracs := tierWriteFracs()
	var shards []Shard
	for _, frac := range fracs {
		frac := frac
		shards = append(shards, Shard{
			Key: fmt.Sprintf("wf%02.0f", frac*100),
			Run: func(seed uint64) any { return measureTierPoint(frac, o, seed) },
		})
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("ext-tier",
				"Tiered volume (Z-SSD tier over NVMe SSD): read tail vs write pressure (us)",
				"write frac", "read mean", "read p50", "read p99", "read p99.9",
				"write mean", "write p99.9", "migrations", "migrated MB", "write-around", "fast hit %")
			i := 0
			for _, frac := range fracs {
				p := res[i].(tierPoint)
				i++
				t.AddRow(fmt.Sprintf("%.2f", frac),
					us(p.readMean), us(p.readP50), us(p.readP99), us(p.readP999),
					us(p.writeMean), us(p.writeP999),
					fmt.Sprintf("%d", p.migrations), fmt.Sprintf("%.1f", p.migratedMB),
					fmt.Sprintf("%d", p.writeAround), pct(p.fastHitPct))
			}
			t.AddNote("4KB random mixed workload at QD4 on a tiered Target: writes land on the Z-SSD tier, and once occupancy crosses the high watermark the volume migrates 64KiB chunks to the NVMe backend in allocation order — migration reads and rewrites contend with host traffic on both devices, so the read tail climbs with write share even though reads mostly miss the small tier")
			t.AddNote("the lowest write share stays under the watermark (zero migrations): the baseline read tail of the backend; write-around counts writes that bypassed a full tier")
			return []*metrics.Table{t}
		},
	}
}
