package experiments

// ext-uring: the io_uring stack's two headline trades, measured the way
// the paper measures completion methods (Section IV) but on the ring
// API. Two tables:
//
//   - completion schemes at QD1: the kernel pvsync2 methods beside the
//     io_uring ones, latency distribution plus the CPU bill per I/O.
//     The kernel's fixed hybrid sleeps half the tracked mean and eats a
//     wake-jitter tail; io_uring's adaptive hybrid resizes its sleep by
//     AIMD on every completion, landing poll-class p99 at a fraction of
//     poll's CPU.
//   - SQPOLL vs interrupt across offered load: the dedicated submission
//     core is a fixed tax that buys syscall-free submission. At low
//     load the tax dominates (interrupt bills ~nothing); past device
//     saturation it amortizes and SQPOLL crosses over on IOPS-per-core.

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
	register("ext-uring", "Extension: io_uring completion schemes — adaptive hybrid poll and the SQPOLL crossover", planExtUring)
}

// uringScheme is one completion scheme of the QD1 shootout.
type uringScheme struct {
	name  string
	stack core.Stack
}

func uringSchemes() []uringScheme {
	all := []uringScheme{
		{"kernel-int", core.Stack{Kind: core.KernelSync, Mode: kernel.Interrupt}},
		{"kernel-poll", core.Stack{Kind: core.KernelSync, Mode: kernel.Poll}},
		{"kernel-hybrid", core.Stack{Kind: core.KernelSync, Mode: kernel.Hybrid}},
		{"io_uring-int", core.Stack{Kind: core.IOUring, Uring: &uring.Config{Mode: uring.Interrupt}}},
		{"io_uring-poll", core.Stack{Kind: core.IOUring, Uring: &uring.Config{Mode: uring.Poll}}},
		{"io_uring-hybrid", core.Stack{Kind: core.IOUring, Uring: &uring.Config{Mode: uring.Hybrid}}},
	}
	if raceEnabled {
		// The paired hybrids alone drive both adaptive-sleep code paths.
		return []uringScheme{all[2], all[5]}
	}
	return all
}

// uringModeIOs sizes the QD1 shootout: enough completions for the
// adaptive delay to converge and the p99 to settle.
func uringModeIOs(o Options) int {
	if raceEnabled {
		return 150
	}
	return o.scale(600, 6000)
}

// uringModePoint is one scheme's QD1 measurement.
type uringModePoint struct {
	mean, p50, p99, p999 sim.Time
	cpuPerIO             float64 // busy core-time per issued I/O, ns
}

// measureUringMode runs the closed-loop QD1 read job and divides the
// core's busy time over every issued I/O (warmup included — the core
// was just as busy warming up).
func measureUringMode(st uringScheme, o Options, seed uint64) uringModePoint {
	n := uringModeIOs(o)
	sys := system(ull(), st.stack, seed)
	res := run(sys, workload.Job{
		Spec: workload.Spec{
			Pattern:   workload.RandRead,
			BlockSize: 4096,
			TotalIOs:  n,
			WarmupIOs: n / 10,
			Seed:      seed,
		},
	})
	sys.Finalize()
	issued := n + n/10
	return uringModePoint{
		mean:     res.All.Mean(),
		p50:      res.All.Percentile(50),
		p99:      res.All.Percentile(99),
		p999:     res.All.Percentile(99.9),
		cpuPerIO: float64(sys.CPU().BusyTime()) / float64(issued),
	}
}

// --- SQPOLL vs interrupt crossover ---

// uringXoverLoads is the offered-load sweep (multiples of the QD1
// service rate) for the SQPOLL crossover; the top point sits past
// device saturation where the dedicated core amortizes.
func uringXoverLoads() []percoreLoad {
	if raceEnabled {
		return []percoreLoad{{"8.0", 8, 32}}
	}
	return []percoreLoad{{"0.30", 0.30, 1}, {"2.0", 2, 32}, {"8.0", 8, 32}, {"32", 32, 32}}
}

func uringXoverStacks() []percoreStack {
	return []percoreStack{
		{"io_uring-int", false, core.Stack{Kind: core.IOUring, Uring: &uring.Config{Mode: uring.Interrupt}}},
		{"io_uring-sqpoll", true, core.Stack{Kind: core.IOUring, Uring: &uring.Config{Mode: uring.SQPoll}}},
	}
}

func planExtUring(o Options) *Plan {
	schemes := uringSchemes()
	xstacks := uringXoverStacks()
	xloads := uringXoverLoads()
	var shards []Shard
	for _, st := range schemes {
		st := st
		shards = append(shards, Shard{
			Key: "mode/" + st.name,
			Run: func(seed uint64) any { return measureUringMode(st, o, seed) },
		})
	}
	for _, st := range xstacks {
		for _, pt := range xloads {
			st, pt := st, pt
			shards = append(shards, Shard{
				Key: fmt.Sprintf("xover/%s/r%s", st.name, pt.label),
				Run: func(seed uint64) any { return measurePercorePoint(st, pt, o, seed) },
			})
		}
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			modes := metrics.NewTable("ext-uring",
				"Completion schemes at QD1, ULL SSD 4KB random read",
				"scheme", "mean us", "p50 us", "p99 us", "p99.9 us", "cpu us/IO")
			i := 0
			for _, st := range schemes {
				p := res[i].(uringModePoint)
				i++
				modes.AddRow(st.name, us(p.mean), us(p.p50), us(p.p99), us(p.p999),
					fmt.Sprintf("%.2f", p.cpuPerIO/1e3))
			}
			modes.AddNote("the kernel hybrid sleeps a fixed half of the tracked mean (4.14 behavior) and pays a wake-jitter tail; io_uring's adaptive hybrid resizes the sleep by AIMD on every completion, converging under the device latency — poll-class p99 at a fraction of poll's CPU bill and below the fixed scheme on both axes")
			modes.AddNote("io_uring's ring submission also undercuts the pvsync2/libaio syscall path per I/O: SQE prep is a ring-slot fill, batches share one io_uring_enter, and an MSI reaps every visible CQE under a single interrupt charge")

			xover := metrics.NewTable("ext-uring-sqpoll",
				"SQPOLL vs interrupt completion across offered load",
				"stack", "load", "offered kIOPS", "achieved kIOPS", "busy cores", "kIOPS/core", "mean us", "p99 us")
			for _, st := range xstacks {
				for _, pt := range xloads {
					p := res[i].(percorePoint)
					i++
					xover.AddRow(st.name, pt.label,
						fmt.Sprintf("%.1f", p.offered/1e3),
						fmt.Sprintf("%.1f", p.achieved/1e3),
						fmt.Sprintf("%.3f", p.busy),
						fmt.Sprintf("%.1f", p.perCore()/1e3),
						us(p.mean), us(p.p99))
				}
			}
			xover.AddNote("SQPOLL pins a submission thread to its own core: a fixed ~1-core tax that buys syscall-free submission and a lower mean at every load; interrupt bills per I/O, so it owns the busy-cores column at low load and cedes IOPS-per-core once the offered load amortizes the dedicated core")
			return []*metrics.Table{modes, xover}
		},
	}
}
