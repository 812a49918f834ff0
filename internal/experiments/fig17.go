package experiments

// Figures 17-19: SPDK (kernel bypass) vs the conventional interrupt-driven
// stack (Section VI-A/B), on both devices and across block sizes.

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
	register("fig17", "SPDK vs kernel interrupt latency on the NVMe SSD", planFig17)
	register("fig18", "SPDK vs kernel interrupt latency on the ULL SSD", planFig18)
	register("fig19", "SPDK vs kernel interrupt with large requests on the ULL SSD", planFig19)
}

func spdkLatency(dev ssd.Config, p workload.Pattern, bs, ios int, seed uint64) *workload.Result {
	sys := system(dev, core.Stack{Kind: core.SPDK}, seed)
	return run(sys, workload.Job{
		Spec: workload.Spec{
			Pattern:   p,
			BlockSize: bs,
			TotalIOs:  ios,
			WarmupIOs: ios / 10,
			Seed:      seed,
		},
	})
}

func planSpdkVsInterrupt(id, title string, dev func() ssd.Config, sizes []int, o Options) *Plan {
	ios := o.scale(1200, 50000)
	type stackPair struct{ spdk, intr sim.Time }
	var shards []Shard
	for _, p := range fourPatterns {
		for _, bs := range sizes {
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/%s", p, sizeLabel(bs)),
				// Both stacks share one seed: the "SPDK saves" column is
				// a paired comparison over the same workload.
				Run: func(seed uint64) any {
					return stackPair{
						spdk: spdkLatency(dev(), p, bs, ios, seed).All.Mean(),
						intr: syncLatency(dev(), kernel.Interrupt, p, bs, ios, seed).All.Mean(),
					}
				},
			})
		}
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable(id, title,
				"block", "pattern", "SPDK (us)", "kernel interrupt (us)", "SPDK saves")
			i := 0
			for _, p := range fourPatterns {
				for _, bs := range sizes {
					m := res[i].(stackPair)
					i++
					t.AddRow(sizeLabel(bs), p.String(),
						us(m.spdk), us(m.intr), reduction(m.intr, m.spdk)+"%")
				}
			}
			return []*metrics.Table{t}
		},
	}
}

func planFig17(o Options) *Plan {
	p := planSpdkVsInterrupt("fig17", "NVMe SSD: SPDK vs kernel interrupt", nvme750, blockSizes, o)
	return appendNote(p, "paper Fig 17: on the conventional NVMe SSD the kernel bypass changes little — reads ~4.3%%, writes ~11.1%% (flash latency dominates the stack)")
}

func planFig18(o Options) *Plan {
	p := planSpdkVsInterrupt("fig18", "ULL SSD: SPDK vs kernel interrupt", ull, blockSizes, o)
	return appendNote(p, "paper Fig 18: on the ULL SSD SPDK cuts 25.2%% (seq reads), 6.3%% (rand reads), 13.7%%/13.3%% (writes) — bypass pays off once the device is fast")
}

func planFig19(o Options) *Plan {
	big := []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	p := planSpdkVsInterrupt("fig19", "ULL SSD, large requests: SPDK vs kernel interrupt", ull, big, o)
	return appendNote(p, "paper Fig 19: from 64KB upward the SPDK and kernel curves overlap — transfer time dwarfs the software stack, so the bypass only matters for small I/O")
}
