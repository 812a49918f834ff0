package experiments

// ext-percore: the paper's CPU-cost argument (Section IV's cycles-per-IO
// accounting) promoted to a first-class frontier now that cores are a
// contended resource. Three tables:
//
//   - the IOPS-per-core frontier: every host stack at a paced low load
//     and at device saturation, reporting how many cores it burns and
//     how many IOPS each busy core buys. Polling stacks (SPDK, SQPOLL,
//     pvsync2-poll) hold cores whether or not work arrives, so they are
//     expensive at low load and efficient at saturation; interrupt
//     stacks are the reverse.
//   - core contention: the same striped volume driven through 4 kernel
//     stacks while the core count shrinks under it. The legacy
//     accounting-only model (Cores=0) admits unbounded CPU; with 2
//     arbitrated cores the submit paths queue behind each other and the
//     loss shows up in IOPS and the tail.
//   - per-tenant core budgets: the workload layer's CPU dial. A fixed
//     offered load against shrinking budgets shows the throttle engage
//     (CPUThrottled/CPUWait) and throughput pin to budget/PerOp.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/uring"
	"repro/internal/workload"
)

func init() {
	register("ext-percore", "Extension: IOPS-per-core frontier, core contention, and tenant core budgets", planExtPercore)
}

// percoreStack is one host stack of the frontier sweep. polling marks
// stacks that hold a core even when idle (their busy-core bill has a
// floor of one).
type percoreStack struct {
	name    string
	polling bool
	stack   core.Stack
}

func percoreStacks() []percoreStack {
	all := []percoreStack{
		{"kernel-int", false, core.Stack{Kind: core.KernelSync, Mode: kernel.Interrupt}},
		{"kernel-poll", true, core.Stack{Kind: core.KernelSync, Mode: kernel.Poll}},
		{"libaio", false, core.Stack{Kind: core.KernelAsync}},
		{"io_uring", false, core.Stack{Kind: core.IOUring, Uring: &uring.Config{Mode: uring.Interrupt}}},
		{"io_uring-sqpoll", true, core.Stack{Kind: core.IOUring, Uring: &uring.Config{Mode: uring.SQPoll}}},
		{"spdk", true, core.Stack{Kind: core.SPDK}},
	}
	if raceEnabled {
		// Two stacks ride the race lane — one interrupt, one with a
		// dedicated polling core — to drive both arbitration paths.
		return []percoreStack{all[2], all[4]}
	}
	return all
}

// percoreLoad is one offered-load point: rho is the multiple of the
// stack's calibrated QD1 service rate, depth the admission concurrency.
// The "sat" point offers far past the device knee at depth so achieved
// IOPS is the stack's ceiling, which is what the frontier divides by
// cores.
type percoreLoad struct {
	label string
	rho   float64
	depth int
}

func percoreLoads() []percoreLoad {
	if raceEnabled {
		return []percoreLoad{{"sat", 40, 32}}
	}
	return []percoreLoad{{"0.30", 0.30, 1}, {"0.70", 0.70, 1}, {"sat", 40, 32}}
}

// percoreScale sizes one shard: calibration I/Os and the open-loop
// measurement window.
func percoreScale(o Options) (calIOs int, dur sim.Time) {
	calIOs = o.scale(300, 3000)
	dur = sim.Time(o.scale(12, 150)) * sim.Millisecond
	if raceEnabled {
		calIOs, dur = 120, 4*sim.Millisecond
	}
	return calIOs, dur
}

// percorePoint is one (stack, load) measurement.
type percorePoint struct {
	offered, achieved float64
	busy              float64 // cores of CPU consumed (busy time / wall)
	mean, p99         sim.Time
	droppedPct        float64
}

// perCore reports the frontier metric: achieved IOPS per busy core.
func (p percorePoint) perCore() float64 {
	if p.busy <= 0 {
		return 0
	}
	return p.achieved / p.busy
}

// measurePercorePoint calibrates the stack's QD1 service rate on one
// system, then measures on a *fresh* system built from the same seed.
// Unlike ext-loadcurve (which shares one system between calibration and
// measurement), the frontier's y-axis is the CPU bill, and the bill
// must cover exactly the measured window — a shared system's core
// counters would carry the calibration's charges and the SPDK/SQPOLL
// spin settlement would span both runs.
func measurePercorePoint(st percoreStack, pt percoreLoad, o Options, seed uint64) percorePoint {
	calIOs, dur := percoreScale(o)
	cal := system(ull(), st.stack, seed)
	calRes := run(cal, workload.Job{
		Spec: workload.Spec{
			Pattern:   workload.RandRead,
			BlockSize: 4096,
			TotalIOs:  calIOs,
			WarmupIOs: calIOs / 10,
			Seed:      seed,
		},
	})
	rate := pt.rho / calRes.All.Mean().Seconds()

	sys := system(ull(), st.stack, seed)
	res := runOpen(sys, workload.OpenJob{
		Spec: workload.Spec{
			Pattern:    workload.RandRead,
			BlockSize:  4096,
			Duration:   dur,
			WarmupTime: dur / 10,
			Seed:       seed,
		},
		Arrival:     workload.Arrival{Kind: workload.Poisson, Rate: rate},
		MaxInFlight: pt.depth,
		QueueCap:    1 << 12,
	})
	sys.Finalize()
	return percorePoint{
		offered:    rate,
		achieved:   res.IOPS(),
		busy:       sys.CoreSet().BusyCores(sys.Engine().Now()),
		mean:       res.All.Mean(),
		p99:        res.All.Percentile(99),
		droppedPct: float64(res.Dropped) / float64(res.Offered),
	}
}

// --- core contention ---

// percoreCorePoints is the host core-count sweep for the contention
// table. 0 is the legacy accounting-only model (one non-arbitrating
// core, CPU never pushes back).
func percoreCorePoints() []int {
	if raceEnabled {
		return []int{2}
	}
	return []int{0, 2, 4}
}

// percoreContendWidth is the stripe width of the contention volume: four
// kernel stacks contending for the host cores.
const percoreContendWidth = 4

// percoreContendRate is the aggregate offered load. At ~2.7 us of CPU
// per libaio I/O, 1.5M IOPS demands ~4 cores of submit+completion work:
// 2 cores are heavily oversubscribed, 4 just saturated.
const percoreContendRate = 1.5e6

func percoreContendGraph(cores int, seed uint64) *core.Graph {
	children := make([]core.Layer, percoreContendWidth)
	for i := range children {
		dev := topoDev(ull())
		dev.Seed ^= seed
		children[i] = core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: dev}}
	}
	return core.Build(core.Topology{
		Cores:        cores,
		Root:         core.Volume{Kind: core.Striped, Chunk: stripeChunk, Children: children},
		Precondition: precondFraction,
	})
}

// percoreContendPoint is one core-count measurement.
type percoreContendPoint struct {
	achieved  float64
	busy      float64
	mean, p99 sim.Time
	queued    uint64   // claims that found their core busy
	queueWait sim.Time // total run-queue wait those claims paid
}

func measurePercoreContend(cores int, o Options, seed uint64) percoreContendPoint {
	_, dur := percoreScale(o)
	g := percoreContendGraph(cores, seed)
	res := workload.RunTenants(g, workload.OpenJob{
		Spec: workload.Spec{
			Pattern:    workload.RandRead,
			BlockSize:  4096,
			Duration:   dur,
			WarmupTime: dur / 10,
			Region:     confineRegion(g),
			Seed:       seed,
		},
		Arrival:     workload.Arrival{Kind: workload.Poisson, Rate: percoreContendRate},
		MaxInFlight: 128,
		QueueCap:    1 << 12,
	})[0]
	g.Finalize()
	cs := g.CoreSet()
	p := percoreContendPoint{
		achieved: res.IOPS(),
		busy:     cs.BusyCores(g.Engine().Now()),
		mean:     res.All.Mean(),
		p99:      res.All.Percentile(99),
	}
	for i := 0; i < cs.N(); i++ {
		s := cs.Sched(i)
		p.queued += s.Queued
		p.queueWait += s.QueueWait
	}
	return p
}

// --- tenant core budgets ---

// percoreBudget is one CPU-budget point: virtual submit cores granted
// to the tenant. 0 is the unbudgeted baseline.
type percoreBudget struct {
	label string
	cores float64
}

func percoreBudgets() []percoreBudget {
	if raceEnabled {
		return []percoreBudget{{"0.50", 0.50}}
	}
	return []percoreBudget{{"none", 0}, {"1.00", 1.00}, {"0.50", 0.50}, {"0.25", 0.25}}
}

// percoreBudgetPerOp is the core time one I/O charges against the
// budget — the measured per-IO CPU cost of the libaio path.
const percoreBudgetPerOp = 2500 * sim.Nanosecond

// percoreBudgetRate is the fixed offered load the budgets throttle.
// Unbudgeted, the device absorbs it; at 0.5 cores the budget caps
// admission at 0.5/2.5us = 200k IOPS and the dial is visible.
const percoreBudgetRate = 250e3

// percoreBudgetPoint is one budget measurement.
type percoreBudgetPoint struct {
	achieved     float64
	throttledPct float64
	cpuWaitMean  sim.Time
	p99          sim.Time
	droppedPct   float64
}

func measurePercoreBudget(b percoreBudget, o Options, seed uint64) percoreBudgetPoint {
	_, dur := percoreScale(o)
	sys := system(ull(), core.Stack{Kind: core.KernelAsync}, seed)
	res := runOpen(sys, workload.OpenJob{
		Spec: workload.Spec{
			Pattern:    workload.RandRead,
			BlockSize:  4096,
			Duration:   dur,
			WarmupTime: dur / 10,
			Seed:       seed,
		},
		Arrival:     workload.Arrival{Kind: workload.Poisson, Rate: percoreBudgetRate},
		MaxInFlight: 32,
		QueueCap:    1 << 12,
		CPU:         workload.CPUBudget{Cores: b.cores, PerOp: percoreBudgetPerOp},
	})
	p := percoreBudgetPoint{
		achieved:   res.IOPS(),
		p99:        res.All.Percentile(99),
		droppedPct: float64(res.Dropped) / float64(res.Offered),
	}
	if res.Offered > 0 {
		p.throttledPct = float64(res.CPUThrottled) / float64(res.Offered)
	}
	if res.CPUThrottled > 0 {
		p.cpuWaitMean = res.CPUWait / sim.Time(res.CPUThrottled)
	}
	return p
}

func planExtPercore(o Options) *Plan {
	stacks := percoreStacks()
	loads := percoreLoads()
	corePts := percoreCorePoints()
	budgets := percoreBudgets()
	var shards []Shard
	for _, st := range stacks {
		for _, pt := range loads {
			st, pt := st, pt
			shards = append(shards, Shard{
				Key: fmt.Sprintf("frontier/%s/%s", st.name, pt.label),
				Run: func(seed uint64) any { return measurePercorePoint(st, pt, o, seed) },
			})
		}
	}
	for _, c := range corePts {
		c := c
		shards = append(shards, Shard{
			Key: fmt.Sprintf("cores/c%d", c),
			Run: func(seed uint64) any { return measurePercoreContend(c, o, seed) },
		})
	}
	for _, b := range budgets {
		b := b
		shards = append(shards, Shard{
			Key: "budget/" + b.label,
			Run: func(seed uint64) any { return measurePercoreBudget(b, o, seed) },
		})
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			front := metrics.NewTable("ext-percore",
				"IOPS-per-core frontier, ULL SSD 4KB random read",
				"stack", "load", "offered kIOPS", "achieved kIOPS", "busy cores", "kIOPS/core", "mean us", "p99 us", "dropped %")
			i := 0
			for _, st := range stacks {
				for _, pt := range loads {
					p := res[i].(percorePoint)
					i++
					front.AddRow(st.name, pt.label,
						fmt.Sprintf("%.1f", p.offered/1e3),
						fmt.Sprintf("%.1f", p.achieved/1e3),
						fmt.Sprintf("%.3f", p.busy),
						fmt.Sprintf("%.1f", p.perCore()/1e3),
						us(p.mean), us(p.p99), pct(p.droppedPct))
				}
			}
			front.AddNote("load is the multiple of each stack's calibrated QD1 service rate; the sat point offers 40x at depth 32, so achieved IOPS is the stack's ceiling and kIOPS/core its frontier position")
			front.AddNote("polling stacks (spdk, io_uring-sqpoll, kernel-poll) hold cores whether or not work arrives: a ~1-core floor at low load that amortizes into the best per-core efficiency once the device saturates; interrupt stacks bill per I/O and win the low-load column")

			cont := metrics.NewTable("ext-percore-cores",
				fmt.Sprintf("Core contention: %d libaio stacks (striped volume) vs host core count, %.1fM IOPS offered", percoreContendWidth, percoreContendRate/1e6),
				"cores", "achieved kIOPS", "busy cores", "mean us", "p99 us", "claims queued", "queue wait us/claim")
			for _, c := range corePts {
				p := res[i].(percoreContendPoint)
				i++
				label := fmt.Sprintf("%d", c)
				if c == 0 {
					label = "legacy"
				}
				wait := "0.00"
				if p.queued > 0 {
					wait = us(p.queueWait / sim.Time(p.queued))
				}
				cont.AddRow(label,
					fmt.Sprintf("%.1f", p.achieved/1e3),
					fmt.Sprintf("%.3f", p.busy),
					us(p.mean), us(p.p99),
					fmt.Sprintf("%d", p.queued), wait)
			}
			cont.AddNote("legacy is the accounting-only model (one non-arbitrating core): CPU is observed but never pushes back, so it overstates what a real host delivers; with arbitration the same offered load queues submit work behind busy cores and the shortfall lands in IOPS and the tail")

			bud := metrics.NewTable("ext-percore-budget",
				fmt.Sprintf("Per-tenant core budgets: libaio reader, %.0fk IOPS offered, %.1fus charged per op", percoreBudgetRate/1e3, float64(percoreBudgetPerOp)/1e3),
				"budget cores", "achieved kIOPS", "throttled %", "cpu wait us", "p99 us", "dropped %")
			for _, b := range budgets {
				p := res[i].(percoreBudgetPoint)
				i++
				bud.AddRow(b.label,
					fmt.Sprintf("%.1f", p.achieved/1e3),
					pct(p.throttledPct),
					us(p.cpuWaitMean),
					us(p.p99), pct(p.droppedPct))
			}
			bud.AddNote("the budget meters admission at cores/PerOp ops per second (cgroup cpu.max for the submit path): throughput pins to the cap, the throttle is visible in throttled%% and the per-issue stall, and the zero budget is the untouched historical code path")
			return []*metrics.Table{front, cont, bud}
		},
	}
}
