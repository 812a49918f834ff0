package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func init() {
	register("fig6", "Read/write interference: read latency vs write fraction", planFig6)
}

var fig6Fractions = []float64{0, 0.2, 0.4, 0.6, 0.8}

func planFig6(o Options) *Plan {
	ioCount := o.scale(3000, 200000)

	type cell struct{ avg, tail string }
	devices := []struct {
		name string
		cfg  func() ssd.Config
	}{{"ULL", ull}, {"NVMe", nvme750}}

	var shards []Shard
	for _, dev := range devices {
		for _, f := range fig6Fractions {
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/wf=%d", dev.name, int(f*100)),
				Run: func(seed uint64) any {
					sys := system(dev.cfg(), core.Stack{Kind: core.KernelAsync}, seed)
					res := run(sys, workload.Job{
						Spec: workload.Spec{
							Pattern:       workload.RandRW,
							WriteFraction: f,
							BlockSize:     4096,
							TotalIOs:      ioCount,
							WarmupIOs:     ioCount / 10,
							Seed:          seed,
						},
						QueueDepth: 4,
					})
					return cell{
						avg:  us(res.Read.Mean()),
						tail: us(res.Read.Percentile(99.999)),
					}
				},
			})
		}
	}

	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			avg := metrics.NewTable("fig6a", "Average read latency under intermixed writes (us)",
				"write %", "ULL", "NVMe")
			tail := metrics.NewTable("fig6b", "99.999th read latency under intermixed writes (us)",
				"write %", "ULL", "NVMe")
			n := len(fig6Fractions)
			for fi, f := range fig6Fractions {
				u := res[fi].(cell)
				nv := res[n+fi].(cell)
				avg.AddRow(int(f*100), u.avg, nv.avg)
				tail.AddRow(int(f*100), u.tail, nv.tail)
			}
			avg.AddNote("paper Fig 6a: NVMe read latency grows ~linearly with write fraction (1.6x at just 20%%); ULL stays ~20-29us throughout (suspend/resume)")
			tail.AddNote("paper Fig 6b: NVMe five-nines reach ~4.5ms at 20%% writes; ULL holds ~100-200us")
			return []*metrics.Table{avg, tail}
		},
	}
}
