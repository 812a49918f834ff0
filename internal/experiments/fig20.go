package experiments

// Figures 20-22: the resource bills of SPDK — CPU utilization, memory
// instruction counts, and the per-function breakdowns (Section VI-B).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() {
	register("fig20", "CPU utilization of SPDK vs conventional stack", planFig20)
	register("fig21", "Normalized memory instruction count of SPDK", planFig21)
	register("fig22", "Load/store breakdown by function (polling and SPDK)", planFig22)
}

// spdkPair runs the same job on the SPDK stack and the kernel interrupt
// stack and returns both systems for counter comparison. The two runs
// share one seed deliberately: figs 20-21 are paired comparisons.
func spdkPair(p workload.Pattern, bs, ios int, seed uint64) (sp, in *core.Graph) {
	sp = system(ull(), core.Stack{Kind: core.SPDK}, seed)
	run(sp, workload.Job{Spec: workload.Spec{Pattern: p, BlockSize: bs, TotalIOs: ios, Seed: seed}})
	in = system(ull(), core.Stack{Kind: core.KernelSync, Mode: kernel.Interrupt}, seed)
	run(in, workload.Job{Spec: workload.Spec{Pattern: p, BlockSize: bs, TotalIOs: ios, Seed: seed}})
	return sp, in
}

// pairShards enumerates (pattern, block size) sweep points whose shard
// runs an SPDK/interrupt pair and reduces it with measure.
func pairShards(ios int, measure func(sp, in *core.Graph) any) []Shard {
	var shards []Shard
	for _, p := range fourPatterns {
		for _, bs := range blockSizes {
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/%s", p, sizeLabel(bs)),
				Run: func(seed uint64) any {
					sp, in := spdkPair(p, bs, ios, seed)
					return measure(sp, in)
				},
			})
		}
	}
	return shards
}

func planFig20(o Options) *Plan {
	type utilPair struct{ sp, in cpu.Utilization }
	return &Plan{
		Shards: pairShards(o.scale(1500, 40000), func(sp, in *core.Graph) any {
			return utilPair{
				sp: sp.CPU().Utilization(sp.Engine().Now()),
				in: in.CPU().Utilization(in.Engine().Now()),
			}
		}),
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("fig20", "CPU utilization: SPDK vs conventional interrupt stack (%)",
				"block", "pattern", "spdk-user", "spdk-system", "int-user", "int-system")
			i := 0
			for _, p := range fourPatterns {
				for _, bs := range blockSizes {
					u := res[i].(utilPair)
					i++
					t.AddRow(sizeLabel(bs), p.String(), u.sp.User, u.sp.Kernel, u.in.User, u.in.Kernel)
				}
			}
			t.AddNote("paper Fig 20: SPDK consumes the whole core in userland (the uio driver cannot sleep); the conventional stack averages ~10%% user + ~15%% kernel")
			return []*metrics.Table{t}
		},
	}
}

func planFig21(o Options) *Plan {
	type ratios struct{ loads, stores float64 }
	return &Plan{
		Shards: pairShards(o.scale(1500, 40000), func(sp, in *core.Graph) any {
			return ratios{
				loads:  float64(sp.CPU().Loads()) / float64(in.CPU().Loads()),
				stores: float64(sp.CPU().Stores()) / float64(in.CPU().Stores()),
			}
		}),
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("fig21", "SPDK loads/stores, normalized to the conventional interrupt stack",
				"block", "pattern", "loads", "stores")
			i := 0
			for _, p := range fourPatterns {
				for _, bs := range blockSizes {
					r := res[i].(ratios)
					i++
					t.AddRow(sizeLabel(bs), p.String(), r.loads, r.stores)
				}
			}
			t.AddNote("paper Fig 21: SPDK generates ~23x the loads and ~16.2x the stores of the conventional path — the huge-page qpair is polled continuously without blk-mq's cookie filtering")
			return []*metrics.Table{t}
		},
	}
}

// fnShare is one function's load/store counts within a run.
type fnShare struct{ loads, stores float64 }

// by selects the count for an instruction kind ("LD" or "ST").
func (s fnShare) by(kind string) float64 {
	if kind == "LD" {
		return s.loads
	}
	return s.stores
}

// fig22Counts carries a run's per-function memory traffic plus totals.
type fig22Counts struct {
	fns          []fnShare
	totLD, totST float64
}

// total selects the run-wide count for an instruction kind.
func (c fig22Counts) total(kind string) float64 {
	if kind == "LD" {
		return c.totLD
	}
	return c.totST
}

func fig22Measure(sys *core.Graph, fns ...cpu.Fn) fig22Counts {
	out := fig22Counts{
		totLD: float64(sys.CPU().Loads()),
		totST: float64(sys.CPU().Stores()),
	}
	for _, f := range fns {
		a := sys.CPU().Acct(f)
		out.fns = append(out.fns, fnShare{loads: float64(a.Loads), stores: float64(a.Stores)})
	}
	return out
}

func planFig22(o Options) *Plan {
	ios := o.scale(3000, 40000)
	var shards []Shard
	for _, p := range fourPatterns {
		shards = append(shards,
			Shard{
				Key: p.String() + "/poll",
				Run: func(seed uint64) any {
					sys := system(ull(), core.Stack{Kind: core.KernelSync, Mode: kernel.Poll}, seed)
					run(sys, workload.Job{Spec: workload.Spec{Pattern: p, BlockSize: 4096, TotalIOs: ios, Seed: seed}})
					return fig22Measure(sys, cpu.FnBlkMQPoll, cpu.FnNVMePoll)
				},
			},
			Shard{
				Key: p.String() + "/spdk",
				Run: func(seed uint64) any {
					sys := system(ull(), core.Stack{Kind: core.SPDK}, seed)
					run(sys, workload.Job{Spec: workload.Spec{Pattern: p, BlockSize: 4096, TotalIOs: ios, Seed: seed}})
					return fig22Measure(sys, cpu.FnSPDKProcess, cpu.FnPCIeProcess, cpu.FnQpairCheck)
				},
			})
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			poll := metrics.NewTable("fig22a", "Kernel polling: load/store share by function (%)",
				"pattern", "kind", "blk_mq_poll", "nvme_poll", "others")
			spdkT := metrics.NewTable("fig22b", "SPDK: load/store share by function (%)",
				"pattern", "kind", "spdk_..._process_completions", "nvme_pcie_..._process_completions", "nvme_qpair_check_enabled", "others")
			for i, p := range fourPatterns {
				pc := res[2*i].(fig22Counts)
				sc := res[2*i+1].(fig22Counts)
				for _, kind := range []string{"LD", "ST"} {
					total := pc.total(kind)
					blk, nv := pc.fns[0].by(kind), pc.fns[1].by(kind)
					poll.AddRow(p.String(), kind, pct(blk/total), pct(nv/total), pct((total-blk-nv)/total))
				}
				for _, kind := range []string{"LD", "ST"} {
					total := sc.total(kind)
					pr, pcx, ck := sc.fns[0].by(kind), sc.fns[1].by(kind), sc.fns[2].by(kind)
					spdkT.AddRow(p.String(), kind, pct(pr/total), pct(pcx/total), pct(ck/total),
						pct((total-pr-pcx-ck)/total))
				}
			}
			poll.AddNote("paper Fig 22a: blk_mq_poll + nvme_poll generate ~39%% of all load/store instructions in the polled kernel")
			spdkT.AddNote("paper Fig 22b: spdk process_completions ~37%%, nvme_pcie ~22%%, the inlined qpair_check ~20%% of loads")
			return []*metrics.Table{poll, spdkT}
		},
	}
}
