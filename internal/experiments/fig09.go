package experiments

// Figures 9-11: polled-mode vs interrupt-driven completion latencies
// (Section V-A), measured on the synchronous pvsync2 path.

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
	register("fig9", "Poll vs interrupt latency on the NVMe SSD", planFig9)
	register("fig10", "Poll vs interrupt latency on the ULL SSD", planFig10)
	register("fig11", "99.999th latency of poll vs interrupt on the ULL SSD", planFig11)
}

// syncLatency runs one synchronous job and returns the result.
func syncLatency(dev ssd.Config, mode kernel.Mode, p workload.Pattern, bs, ios int, seed uint64) *workload.Result {
	sys := system(dev, core.Stack{Kind: core.KernelSync, Mode: mode}, seed)
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

// modePair is one sweep point measured under polling and interrupts.
type modePair struct{ poll, intr sim.Time }

// pollIntrShards builds one shard per (pattern, block size) point. Each
// shard runs BOTH completion modes on the same seed: the figures report
// poll-vs-interrupt reductions, and pairing the runs keeps the workload
// identical on both sides of the division. stat extracts the statistic
// the figure plots.
func pollIntrShards(dev func() ssd.Config, patterns []workload.Pattern, ios int,
	stat func(*workload.Result) sim.Time) []Shard {
	var shards []Shard
	for _, p := range patterns {
		for _, bs := range blockSizes {
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/%s", p, sizeLabel(bs)),
				Run: func(seed uint64) any {
					return modePair{
						poll: stat(syncLatency(dev(), kernel.Poll, p, bs, ios, seed)),
						intr: stat(syncLatency(dev(), kernel.Interrupt, p, bs, ios, seed)),
					}
				},
			})
		}
	}
	return shards
}

func planPollVsInterrupt(id, title string, dev func() ssd.Config, o Options) *Plan {
	ios := o.scale(1200, 50000)
	return &Plan{
		Shards: pollIntrShards(dev, fourPatterns, ios,
			func(r *workload.Result) sim.Time { return r.All.Mean() }),
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable(id, title, "block", "pattern", "poll (us)", "interrupt (us)", "poll saves")
			i := 0
			for _, p := range fourPatterns {
				for _, bs := range blockSizes {
					m := res[i].(modePair)
					i++
					t.AddRow(sizeLabel(bs), p.String(),
						us(m.poll), us(m.intr), reduction(m.intr, m.poll)+"%")
				}
			}
			return []*metrics.Table{t}
		},
	}
}

func planFig9(o Options) *Plan {
	p := planPollVsInterrupt("fig9", "NVMe SSD: average latency, poll vs interrupt", nvme750, o)
	return appendNote(p, "paper Fig 9: polling barely helps the conventional NVMe SSD — reads differ <2.2%%, writes <11.2%% (device time dominates)")
}

func planFig10(o Options) *Plan {
	p := planPollVsInterrupt("fig10", "ULL SSD: average latency, poll vs interrupt", ull, o)
	return appendNote(p, "paper Fig 10: on the ULL SSD polling cuts 4KB reads 11.8->9.6us and writes 11.2->9.2us (16.3%%/13.5%% average)")
}

// appendNote wraps a plan's merge to add a note to its first table.
func appendNote(p *Plan, format string, args ...any) *Plan {
	inner := p.Merge
	p.Merge = func(res []any) []*metrics.Table {
		tables := inner(res)
		tables[0].AddNote(format, args...)
		return tables
	}
	return p
}

func planFig11(o Options) *Plan {
	ios := o.scale(30000, 400000)
	patterns := []workload.Pattern{workload.RandRead, workload.RandWrite}
	return &Plan{
		Shards: pollIntrShards(ull, patterns, ios,
			func(r *workload.Result) sim.Time { return r.All.Percentile(99.999) }),
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("fig11", "ULL SSD: 99.999th-percentile latency, poll vs interrupt (us)",
				"block", "direction", "poll", "interrupt", "poll penalty")
			i := 0
			for _, p := range patterns {
				dir := "read"
				if p.Writes() {
					dir = "write"
				}
				for _, bs := range blockSizes {
					m := res[i].(modePair)
					i++
					t.AddRow(sizeLabel(bs), dir, us(m.poll), us(m.intr),
						pct(float64(m.poll-m.intr)/float64(m.intr))+"%")
				}
			}
			t.AddNote("paper Fig 11: the tail inverts — polling is ~12.5%% (reads) / ~11.4%% (writes) WORSE at the five-nines, because the spinning poller absorbs deferred kernel work and cannot context-switch")
			if o.Quick {
				t.AddNote("quick mode: five-nines from %d samples are noisy; use -full", ios)
			}
			return []*metrics.Table{t}
		},
	}
}
