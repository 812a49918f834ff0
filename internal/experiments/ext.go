package experiments

// Extension experiments: the paper's discussion items made concrete.
// Section IV-C concludes that "the rich queue and existing NVMe protocol
// specification are overkill [for ULL]; a future ULL-enabled system may
// require a lighter queue mechanism and simpler protocol, such as NCQ of
// SATA". ext-lightq implements that proposal and measures it.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register("ext-lightq", "Extension: NCQ-style lightweight queue protocol on the ULL SSD", planExtLightQ)
	register("ext-pollopt", "Extension: classic-polling optimization (leaner blk_mq_poll shell)", planExtPollOpt)
}

var extLightQPatterns = []workload.Pattern{workload.RandRead, workload.RandWrite}

func planExtLightQ(o Options) *Plan {
	ios := o.scale(2000, 50000)

	measure := func(mode kernel.Mode, p workload.Pattern, q nvme.Config, seed uint64) sim.Time {
		sys := system(ull(), core.Stack{Kind: core.KernelSync, Mode: mode, Queue: core.Queue{NVMe: q}}, seed)
		res := run(sys, workload.Job{
			Spec: workload.Spec{
				Pattern:   p,
				BlockSize: 4096,
				TotalIOs:  ios,
				WarmupIOs: ios / 10,
				Seed:      seed,
			},
		})
		return res.All.Mean()
	}

	type protoPair struct{ rich, light sim.Time }
	var shards []Shard
	for _, mode := range []kernel.Mode{kernel.Interrupt, kernel.Poll} {
		for _, p := range extLightQPatterns {
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/%s", mode, p),
				// Both protocols share one seed: "light saves" is a
				// paired comparison over the same workload.
				Run: func(seed uint64) any {
					return protoPair{
						rich:  measure(mode, p, nvme.DefaultConfig(), seed),
						light: measure(mode, p, nvme.LightConfig(), seed),
					}
				},
			})
		}
	}

	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("ext-lightq",
				"Lightweight queue protocol vs rich NVMe queues, ULL SSD 4KB (us)",
				"completion", "pattern", "rich NVMe", "light queue", "light saves")
			i := 0
			for _, mode := range []kernel.Mode{kernel.Interrupt, kernel.Poll} {
				for _, p := range extLightQPatterns {
					m := res[i].(protoPair)
					i++
					t.AddRow(mode.String(), p.String(),
						us(m.rich), us(m.light), reduction(m.rich, m.light)+"%")
				}
			}
			t.AddNote("paper Section IV-C implication: ULL needs only ~8-16 queue entries, so the rich NVMe queue machinery is overhead; a shallow NCQ-style queue with compact descriptors shaves protocol time off every I/O")
			return []*metrics.Table{t}
		},
	}
}

// planExtPollOpt implements the paper's reference [1] ("blk: optimization
// for classic polling"): the blk_mq_poll shell spends most of its cycles
// on reschedule checks and cookie bookkeeping; the patch strips the loop
// to little more than the nvme_poll CQ walk. We compare the stock 4.14
// loop with the optimized one on the ULL SSD.
func planExtPollOpt(o Options) *Plan {
	ios := o.scale(2000, 50000)
	type measured struct {
		mean      sim.Time
		kernelCPU float64
	}

	measure := func(p workload.Pattern, costs kernel.Costs, seed uint64) measured {
		sys := system(ull(), core.Stack{Kind: core.KernelSync, Mode: kernel.Poll, Kernel: &costs}, seed)
		res := run(sys, workload.Job{
			Spec: workload.Spec{
				Pattern:   p,
				BlockSize: 4096,
				TotalIOs:  ios,
				WarmupIOs: ios / 10,
				Seed:      seed,
			},
		})
		u := sys.CPU().Utilization(sys.Engine().Now())
		return measured{mean: res.All.Mean(), kernelCPU: u.Kernel}
	}

	leanCosts := func() kernel.Costs {
		lean := kernel.DefaultCosts()
		// The optimized loop halves the shell work and its memory traffic.
		lean.PollIterBlk.Time /= 2
		lean.PollIterBlk.Loads /= 2
		lean.PollIterBlk.Stores /= 2
		return lean
	}

	type loopPair struct{ stock, opt measured }
	var shards []Shard
	for _, p := range extLightQPatterns {
		shards = append(shards, Shard{
			Key: p.String(),
			// Both loops share one seed: the row is a paired comparison.
			Run: func(seed uint64) any {
				return loopPair{
					stock: measure(p, kernel.DefaultCosts(), seed),
					opt:   measure(p, leanCosts(), seed),
				}
			},
		})
	}

	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("ext-pollopt",
				"Classic polling vs optimized polling (leaner loop), ULL SSD 4KB",
				"pattern", "stock poll (us)", "optimized poll (us)", "stock kernel CPU %", "optimized kernel CPU %")
			i := 0
			for _, p := range extLightQPatterns {
				m := res[i].(loopPair)
				i++
				t.AddRow(p.String(), us(m.stock.mean), us(m.opt.mean),
					pct(m.stock.kernelCPU/100), pct(m.opt.kernelCPU/100))
			}
			t.AddNote("kernel patch lore.kernel.org/patchwork/patch/885868 (paper ref [1]): a leaner poll loop detects completions sooner (finer iteration granularity) without changing what polling fundamentally costs — the core stays pinned")
			return []*metrics.Table{t}
		},
	}
}
