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
	register("fig4a", "Average latency vs queue depth (ULL vs NVMe, 4 patterns)", planFig4a)
	register("fig4b", "99.999th-percentile latency vs queue depth", planFig4b)
}

var fig4Depths = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32}

var fig4Devices = []struct {
	name string
	cfg  func() ssd.Config
}{
	{"ULL", ull},
	{"NVMe", nvme750},
}

// fig4Shards enumerates the libaio QD sweep; one shard per
// (device, pattern, depth) point, each building its own system. pick
// extracts the statistic the calling figure plots (fig4a and fig4b run
// the same sweep but tabulate different statistics).
func fig4Shards(o Options, pick func(*workload.Result) sim.Time) []Shard {
	total := o.scale(1500, 120000)
	var shards []Shard
	for _, dev := range fig4Devices {
		for _, p := range fourPatterns {
			for _, qd := range fig4Depths {
				shards = append(shards, Shard{
					Key: fmt.Sprintf("%s/%s/qd=%d", dev.name, p, qd),
					Run: func(seed uint64) any {
						sys := system(dev.cfg(), core.Stack{Kind: core.KernelAsync}, seed)
						return pick(run(sys, workload.Job{
							Spec: workload.Spec{
								Pattern:   p,
								BlockSize: 4096,
								TotalIOs:  total,
								WarmupIOs: total / 10,
								Seed:      seed,
							},
							QueueDepth: qd,
						}))
					},
				})
			}
		}
	}
	return shards
}

// fig4Merge lays the sweep results out as one row per depth, one column
// per device-pattern.
func fig4Merge(id, title, stat string, res []any) *metrics.Table {
	cols := []string{"QD"}
	for _, dev := range fig4Devices {
		for _, p := range fourPatterns {
			cols = append(cols, dev.name+"-"+p.String())
		}
	}
	t := metrics.NewTable(id, title, cols...)
	// Results arrive in shard order: device-major, then pattern, then
	// depth — transpose into depth-major rows.
	perCol := len(fig4Depths)
	for qi, qd := range fig4Depths {
		row := []any{qd}
		for ci := 0; ci < len(cols)-1; ci++ {
			row = append(row, us(res[ci*perCol+qi].(sim.Time)))
		}
		t.AddRow(row...)
	}
	t.AddNote("%s latency in microseconds; libaio, 4KB, O_DIRECT, preconditioned device", stat)
	return t
}

func planFig4a(o Options) *Plan {
	return &Plan{
		Shards: fig4Shards(o, func(r *workload.Result) sim.Time { return r.All.Mean() }),
		Merge: func(res []any) []*metrics.Table {
			t := fig4Merge("fig4a", "Average latency vs queue depth (us)", "average", res)
			t.AddNote("paper: ULL read 12.6us / write 11.3us at low QD; NVMe write 14.1us, random read 82.9us (5.2x ULL); at QD32 NVMe rises to 121-159us while ULL stays sustainable")
			return []*metrics.Table{t}
		},
	}
}

func planFig4b(o Options) *Plan {
	return &Plan{
		Shards: fig4Shards(o, func(r *workload.Result) sim.Time { return r.All.Percentile(99.999) }),
		Merge: func(res []any) []*metrics.Table {
			t := fig4Merge("fig4b", "99.999th-percentile latency vs queue depth (us)", "five-nines", res)
			t.AddNote("paper: NVMe five-nines reach milliseconds (writes worst, ~2.1x reads); ULL stays in the hundreds of microseconds")
			if o.Quick {
				t.AddNote("quick mode: tail percentiles computed from reduced samples; run with -full for stable five-nines")
			}
			return []*metrics.Table{t}
		},
	}
}
