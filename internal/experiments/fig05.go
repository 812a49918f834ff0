package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func init() {
	register("fig5", "Bandwidth utilization vs queue depth (normalized to max)", planFig5)
}

var fig5Sweeps = []struct {
	name   string
	cfg    func() ssd.Config
	depths []int
}{
	{"ULL", ull, []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32}},
	{"NVMe", nvme750, []int{1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256}},
}

func planFig5(o Options) *Plan {
	// Duration-based runs measure steady-state bandwidth: long enough
	// for the DRAM write buffer to saturate so writes run at the flash
	// drain rate, not the buffer fill rate.
	duration := sim.Time(o.scale(20, 300)) * sim.Millisecond

	var shards []Shard
	for _, sweep := range fig5Sweeps {
		for _, p := range fourPatterns {
			for _, qd := range sweep.depths {
				shards = append(shards, Shard{
					Key: fmt.Sprintf("%s/%s/qd=%d", sweep.name, p, qd),
					Run: func(seed uint64) any {
						sys := system(sweep.cfg(), core.Stack{Kind: core.KernelAsync}, seed)
						res := run(sys, workload.Job{
							Spec: workload.Spec{
								Pattern:    p,
								BlockSize:  4096,
								Duration:   duration,
								WarmupTime: duration / 2,
								Seed:       seed,
							},
							QueueDepth: qd,
						})
						return res.BandwidthMBps()
					},
				})
			}
		}
	}

	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			var tables []*metrics.Table
			i := 0
			for _, sweep := range fig5Sweeps {
				t := metrics.NewTable("fig5-"+sweep.name, sweep.name+" normalized bandwidth (%)",
					append([]string{"QD"}, patternNames()...)...)
				// Normalization needs the whole device sweep: find the
				// peak across every pattern and depth first.
				n := len(fourPatterns) * len(sweep.depths)
				bw := res[i : i+n]
				i += n
				maxBW := 0.0
				for _, v := range bw {
					if v.(float64) > maxBW {
						maxBW = v.(float64)
					}
				}
				for qi, qd := range sweep.depths {
					row := []any{qd}
					for pi := range fourPatterns {
						row = append(row, pct(bw[pi*len(sweep.depths)+qi].(float64)/maxBW))
					}
					t.AddRow(row...)
				}
				tables = append(tables, t)
			}
			tables[0].AddNote("paper Fig 5a: ULL reads hit max bandwidth by QD8 (sequential) / QD16 (worst case); writes sustain 87-90%%")
			tables[1].AddNote("paper Fig 5b: NVMe 4KB writes cap near 40%% of max; random reads need QD>128 to reach max")
			return tables
		},
	}
}

func patternNames() []string {
	names := make([]string, len(fourPatterns))
	for i, p := range fourPatterns {
		names[i] = p.String()
	}
	return names
}
