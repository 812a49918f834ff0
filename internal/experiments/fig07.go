package experiments

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
	register("fig7a", "Average power: async/sync x 4 patterns + idle", planFig7a)
	register("fig7b", "Write latency time series under sustained random writes (GC)", planFig7b)
	register("fig8", "Power and latency during garbage collection", planFig8)
}

var fig7Modes = []struct {
	label string
	stack core.StackKind
}{{"Async", core.KernelAsync}, {"Sync", core.KernelSync}}

func planFig7a(o Options) *Plan {
	duration := sim.Time(o.scale(15, 150)) * sim.Millisecond

	measure := func(dev ssd.Config, stack core.StackKind, p workload.Pattern, seed uint64) float64 {
		dev.Seed ^= seed
		sys := core.Build(core.Topology{
			Root:         core.Stack{Kind: stack, Mode: kernel.Interrupt, Queue: core.Queue{Device: dev}},
			Precondition: 1.0,
		})
		qd := 16
		if stack == core.KernelSync {
			qd = 1
		}
		run(sys, workload.Job{
			Spec: workload.Spec{
				Pattern:   p,
				BlockSize: 4096,
				Duration:  duration,
				Seed:      seed,
			},
			QueueDepth: qd,
		})
		return sys.Devices()[0].Meter().AvgWatts(sys.Engine().Now())
	}

	var shards []Shard
	for _, mode := range fig7Modes {
		for _, p := range fourPatterns {
			for _, dev := range fig4Devices {
				shards = append(shards, Shard{
					Key: fmt.Sprintf("%s/%s/%s", mode.label, p, dev.name),
					Run: func(seed uint64) any {
						return measure(dev.cfg(), mode.stack, p, seed)
					},
				})
			}
		}
	}

	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("fig7a", "Average device power (W)",
				"workload", "NVMe SSD", "ULL SSD")
			i := 0
			for _, mode := range fig7Modes {
				for _, p := range fourPatterns {
					// Consume results in fig4Devices order (the shard
					// generation order) and pick columns by name, so the
					// table survives a reordering of that list.
					watts := map[string]float64{}
					for _, dev := range fig4Devices {
						watts[dev.name] = res[i].(float64)
						i++
					}
					t.AddRow(mode.label+"-"+p.String(), watts["NVMe"], watts["ULL"])
				}
			}
			// Idle: engines run with no I/O at all.
			t.AddRow("Idle", nvme750().Power.Idle, ull().Power.Idle)
			t.AddNote("paper Fig 7a: idle ~3.8W, reads ~4.1W on both; ULL consumes ~30%% less than NVMe for async writes (SLC-like Z-NAND program)")
			return []*metrics.Table{t}
		},
	}
}

// gcRun is one device's sustained-random-write timeline: the
// write-latency series, the power trace, and the device counters.
type gcRun struct {
	lat   []metrics.Point
	power []metrics.Point
	stats ssd.Stats
}

// gcTimeline drives sustained 4KB random writes over a preconditioned
// device long enough for garbage collection to engage.
func gcTimeline(dev ssd.Config, seed uint64, duration sim.Time) gcRun {
	dev.Seed ^= seed
	sys := core.Build(core.Topology{
		Root:         core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: dev}},
		Precondition: 1.0,
	})
	res := run(sys, workload.Job{
		Spec: workload.Spec{
			Pattern:      workload.RandWrite,
			BlockSize:    4096,
			Duration:     duration,
			Seed:         seed,
			SeriesBucket: duration / 30,
		},
		QueueDepth: 8,
	})
	return gcRun{
		lat:   res.WriteSeries.Points(),
		power: sys.Devices()[0].Meter().Trace(sys.Engine().Now()),
		stats: sys.Devices()[0].Stats(),
	}
}

// gcShards builds one shard per device, NVMe first (the merge order the
// fig7b/fig8 tables assume).
func gcShards(o Options) []Shard {
	return []Shard{
		{Key: "NVMe", Run: func(seed uint64) any {
			return gcTimeline(nvme750(), seed, sim.Time(o.scale(400, 1600))*sim.Millisecond)
		}},
		{Key: "ULL", Run: func(seed uint64) any {
			return gcTimeline(ull(), seed, sim.Time(o.scale(200, 800))*sim.Millisecond)
		}},
	}
}

func planFig7b(o Options) *Plan {
	return &Plan{
		Shards: gcShards(o),
		Merge: func(res []any) []*metrics.Table {
			nv, ul := res[0].(gcRun), res[1].(gcRun)
			t := metrics.NewTable("fig7b", "Write latency over time under sustained random writes (us)",
				"time (ms)", "NVMe SSD", "ULL SSD")
			rows := len(nv.lat)
			if len(ul.lat) > rows {
				rows = len(ul.lat)
			}
			for i := 0; i < rows; i++ {
				var tms, nvCell, ulCell any = "", "", ""
				if i < len(nv.lat) {
					tms = nv.lat[i].T.Millis()
					nvCell = nv.lat[i].Mean
				}
				if i < len(ul.lat) {
					if tms == "" {
						tms = ul.lat[i].T.Millis()
					}
					ulCell = ul.lat[i].Mean
				}
				t.AddRow(tms, nvCell, ulCell)
			}
			t.AddNote("NVMe: %d GC migrations, %d erases, %d write stalls; ULL: %d migrations, %d erases, %d stalls",
				nv.stats.GCMigrations, nv.stats.FlashErases, nv.stats.WriteStalls,
				ul.stats.GCMigrations, ul.stats.FlashErases, ul.stats.WriteStalls)
			t.AddNote("paper Fig 7b: NVMe write latency jumps sharply once GC begins reclaiming; ULL stays sustained (fast media + parallel GC + suspend/resume)")
			return []*metrics.Table{t}
		},
	}
}

func planFig8(o Options) *Plan {
	return &Plan{
		Shards: gcShards(o),
		Merge: func(res []any) []*metrics.Table {
			var tables []*metrics.Table
			for i, name := range []string{"NVMe", "ULL"} {
				r := res[i].(gcRun)
				t := metrics.NewTable("fig8-"+name, name+" power and write latency during GC",
					"time (ms)", "power (W)", "latency (us)")
				for j := range r.power {
					latV := ""
					if j < len(r.lat) && r.lat[j].Count > 0 {
						latV = us(sim.Time(r.lat[j].Mean * 1000))
					}
					t.AddRow(r.power[j].T.Millis(), r.power[j].Mean, latV)
				}
				tables = append(tables, t)
			}
			tables[0].AddNote("paper Fig 8a: NVMe power *drops* during GC (host writes stall, few chips active) while latency spikes to ~3ms")
			tables[1].AddNote("paper Fig 8b: ULL power *rises* ~12%% during GC (many chips reclaim in parallel) while latency stays ~500us")
			return tables
		},
	}
}
