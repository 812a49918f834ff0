package experiments

// Figures 12-14: CPU-utilization consequences of the completion methods
// (Section V-B1), and the kernel cycle breakdowns VTune reported.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() {
	register("fig12", "CPU utilization of hybrid polling", planFig12)
	register("fig13", "CPU utilization: interrupt vs poll (user/kernel)", planFig13)
	register("fig14", "CPU cycle breakdown of polling (module and function)", planFig14)
}

// syncUtil runs a sync job and returns the utilization split.
func syncUtil(mode kernel.Mode, p workload.Pattern, bs, ios int, seed uint64) (cpu.Utilization, *core.Graph) {
	sys := system(ull(), core.Stack{Kind: core.KernelSync, Mode: mode}, seed)
	run(sys, workload.Job{
		Spec: workload.Spec{
			Pattern:   p,
			BlockSize: bs,
			TotalIOs:  ios,
			WarmupIOs: ios / 20,
			Seed:      seed,
		},
	})
	return sys.CPU().Utilization(sys.Engine().Now()), sys
}

func planFig12(o Options) *Plan {
	ios := o.scale(1500, 40000)
	var shards []Shard
	for _, bs := range blockSizes {
		for _, p := range fourPatterns {
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/%s", sizeLabel(bs), p),
				Run: func(seed uint64) any {
					u, _ := syncUtil(kernel.Hybrid, p, bs, ios, seed)
					return u.User + u.Kernel
				},
			})
		}
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("fig12", "Hybrid polling CPU utilization (%)",
				"block", "SeqRd", "RndRd", "SeqWr", "RndWr")
			i := 0
			for _, bs := range blockSizes {
				row := []any{sizeLabel(bs)}
				for range fourPatterns {
					row = append(row, res[i].(float64))
					i++
				}
				t.AddRow(row...)
			}
			t.AddNote("paper Fig 12: hybrid polling still burns 52-58%% of a core — 2.2x what interrupts use, though below classic polling's ~100%%")
			return []*metrics.Table{t}
		},
	}
}

func planFig13(o Options) *Plan {
	ios := o.scale(1500, 40000)
	type utilPair struct{ intr, poll cpu.Utilization }
	var shards []Shard
	for _, p := range fourPatterns {
		for _, bs := range blockSizes {
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/%s", p, sizeLabel(bs)),
				// Both modes share one seed: the row compares them over
				// the same workload.
				Run: func(seed uint64) any {
					ui, _ := syncUtil(kernel.Interrupt, p, bs, ios, seed)
					up, _ := syncUtil(kernel.Poll, p, bs, ios, seed)
					return utilPair{intr: ui, poll: up}
				},
			})
		}
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("fig13", "CPU utilization by mode (%)",
				"block", "pattern", "int-user", "int-kernel", "poll-user", "poll-kernel")
			i := 0
			for _, p := range fourPatterns {
				for _, bs := range blockSizes {
					u := res[i].(utilPair)
					i++
					t.AddRow(sizeLabel(bs), p.String(), u.intr.User, u.intr.Kernel, u.poll.User, u.poll.Kernel)
				}
			}
			t.AddNote("paper Fig 13: interrupts use ~9.2%% user + ~8.4%% kernel; polling pushes kernel time to ~96%% of the run")
			return []*metrics.Table{t}
		},
	}
}

// fig14Cycles is one pattern's kernel-cycle breakdown under polling.
type fig14Cycles struct {
	driver, blk, nv, kernelTotal float64
}

func planFig14(o Options) *Plan {
	ios := o.scale(3000, 40000)
	var shards []Shard
	for _, p := range fourPatterns {
		shards = append(shards, Shard{
			Key: p.String(),
			Run: func(seed uint64) any {
				_, sys := syncUtil(kernel.Poll, p, 4096, ios, seed)
				c := sys.CPU()
				out := fig14Cycles{kernelTotal: float64(c.KernelTime())}
				for f := cpu.Fn(0); f < cpu.NumFns; f++ {
					if f.Kernel() && f.Driver() {
						out.driver += float64(c.Acct(f).Time)
					}
				}
				out.blk = float64(c.Acct(cpu.FnBlkMQPoll).Time)
				out.nv = float64(c.Acct(cpu.FnNVMePoll).Time)
				return out
			},
		})
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			mod := metrics.NewTable("fig14a", "Kernel CPU cycle breakdown by module (poll mode, %)",
				"pattern", "NVMe driver", "rest of storage stack")
			fn := metrics.NewTable("fig14b", "Kernel CPU cycle breakdown by function (poll mode, %)",
				"pattern", "blk_mq_poll", "nvme_poll", "other kernel")
			for i, p := range fourPatterns {
				c := res[i].(fig14Cycles)
				mod.AddRow(p.String(), pct(c.driver/c.kernelTotal), pct(1-c.driver/c.kernelTotal))
				fn.AddRow(p.String(), pct(c.blk/c.kernelTotal), pct(c.nv/c.kernelTotal),
					pct((c.kernelTotal-c.blk-c.nv)/c.kernelTotal))
			}
			mod.AddNote("paper Fig 14a: the NVMe driver uses only ~17.5%% of kernel cycles; blk-mq and the rest of the stack use the rest")
			fn.AddNote("paper Fig 14b: blk_mq_poll ~67%% + nvme_poll ~17%% = 84%% of all kernel cycles")
			return []*metrics.Table{mod, fn}
		},
	}
}
