package experiments

// Figure 15: memory-instruction inflation of the polled mode, and
// Figure 16: hybrid polling vs classic polling latency reductions
// (Sections V-B2 and V-C).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register("fig15", "Normalized memory instruction count of polling", planFig15)
	register("fig16", "Latency reduction of polling and hybrid polling vs interrupts", planFig16)
}

var fig15Patterns = []workload.Pattern{workload.RandRead, workload.RandWrite}

func planFig15(o Options) *Plan {
	ios := o.scale(1500, 40000)
	type ratios struct{ loads, stores float64 }
	var shards []Shard
	for _, p := range fig15Patterns {
		for _, bs := range blockSizes {
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/%s", p, sizeLabel(bs)),
				// One shard runs BOTH modes on the same seed: the figure
				// is a paired ratio, and sharing the seed keeps the
				// workload identical between numerator and denominator.
				Run: func(seed uint64) any {
					sysP := system(ull(), core.Stack{Kind: core.KernelSync, Mode: kernel.Poll}, seed)
					run(sysP, workload.Job{Spec: workload.Spec{Pattern: p, BlockSize: bs, TotalIOs: ios, Seed: seed}})
					sysI := system(ull(), core.Stack{Kind: core.KernelSync, Mode: kernel.Interrupt}, seed)
					run(sysI, workload.Job{Spec: workload.Spec{Pattern: p, BlockSize: bs, TotalIOs: ios, Seed: seed}})
					return ratios{
						loads:  float64(sysP.CPU().Loads()) / float64(sysI.CPU().Loads()),
						stores: float64(sysP.CPU().Stores()) / float64(sysI.CPU().Stores()),
					}
				},
			})
		}
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("fig15", "Loads/stores of poll mode, normalized to interrupt mode",
				"block", "direction", "loads", "stores")
			i := 0
			for _, p := range fig15Patterns {
				dir := "read"
				if p.Writes() {
					dir = "write"
				}
				for _, bs := range blockSizes {
					r := res[i].(ratios)
					i++
					t.AddRow(sizeLabel(bs), dir, r.loads, r.stores)
				}
			}
			t.AddNote("paper Fig 15: polling issues ~2.37x the loads (uncached CQ-entry reads) and ~1.78x the stores of the interrupt path")
			return []*metrics.Table{t}
		},
	}
}

func planFig16(o Options) *Plan {
	ios := o.scale(1500, 40000)
	type triple struct{ intr, poll, hyb sim.Time }
	var shards []Shard
	for _, p := range fourPatterns {
		for _, bs := range blockSizes {
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/%s", p, sizeLabel(bs)),
				// All three modes share one seed: the table reports
				// reductions relative to interrupts, a paired comparison.
				Run: func(seed uint64) any {
					return triple{
						intr: syncLatency(ull(), kernel.Interrupt, p, bs, ios, seed).All.Mean(),
						poll: syncLatency(ull(), kernel.Poll, p, bs, ios, seed).All.Mean(),
						hyb:  syncLatency(ull(), kernel.Hybrid, p, bs, ios, seed).All.Mean(),
					}
				},
			})
		}
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("fig16", "Latency reduction vs interrupts on the ULL SSD (%)",
				"block", "pattern", "polling", "hybrid polling")
			i := 0
			for _, p := range fourPatterns {
				for _, bs := range blockSizes {
					tr := res[i].(triple)
					i++
					t.AddRow(sizeLabel(bs), p.String(),
						reduction(tr.intr, tr.poll), reduction(tr.intr, tr.hyb))
				}
			}
			t.AddNote("paper Fig 16: classic polling reduces latency up to ~33%%; hybrid polling manages at most ~8.2%% — its sleep estimate over- or under-shoots because device latency varies")
			return []*metrics.Table{t}
		},
	}
}
