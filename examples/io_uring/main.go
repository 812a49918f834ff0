// The io_uring-class ring stack: how the four completion schemes trade
// latency against CPU, and what pinning a dedicated SQPOLL core buys.
//
// Part 1 runs a QD1 4KiB random-read job under each scheme and compares
// mean/p99 latency with the CPU charged per I/O. Part 2 deepens the
// queue to 32 and shows the other side of the trade: SQPOLL burns a
// whole extra core, but at saturation that core buys enough throughput
// to win on IOPS per busy core.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro"
)

func uringSystem(mode repro.UringMode, cores int, seed uint64) *repro.TopologySystem {
	dev := repro.ZSSD()
	dev.Seed ^= seed
	return repro.BuildTopology(repro.Topology{
		Root:         repro.UringOn(mode, dev),
		Cores:        cores,
		Precondition: 1.0,
	})
}

func run(sys *repro.TopologySystem, depth, ios int, seed uint64) *repro.Result {
	res := repro.RunJob(sys, repro.Job{
		Spec: repro.Spec{
			Pattern:   repro.RandRead,
			BlockSize: 4096,
			TotalIOs:  ios,
			WarmupIOs: ios / 10,
			Seed:      seed,
		},
		QueueDepth: depth,
	})
	// SQPOLL's poll-thread spin is settled once at the end of a run;
	// without this the pinned core's busy time is undercounted.
	sys.Finalize()
	return res
}

func main() {
	const seed = 11

	fmt.Println("Part 1 — completion schemes at QD1 (4KiB random read, ULL SSD)")
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tmean\tp99\tcpu/IO\tbusy cores")
	for _, m := range []struct {
		name  string
		mode  repro.UringMode
		cores int
	}{
		{"interrupt", repro.UringInterrupt, 1},
		{"poll", repro.UringPoll, 1},
		{"hybrid", repro.UringHybrid, 1},
		{"sqpoll", repro.UringSQPoll, 2},
	} {
		const ios = 4000
		sys := uringSystem(m.mode, m.cores, seed)
		res := run(sys, 1, ios, seed)
		cpuPerIO := float64(sys.CPU().BusyTime()) / float64(ios+ios/10)
		fmt.Fprintf(w, "%s\t%.2fus\t%.2fus\t%.2fus\t%.2f\n",
			m.name, res.All.Mean().Micros(), res.All.Percentile(0.99).Micros(),
			cpuPerIO/1e3, sys.CoreSet().BusyCores(sys.Engine().Now()))
	}
	w.Flush()
	fmt.Println()
	fmt.Println("Interrupts sleep the submitter but eat a wakeup on every completion;")
	fmt.Println("classic polling matches the device latency at a full core per queue.")
	fmt.Println("The adaptive hybrid sleeps most of each I/O and spins only the last")
	fmt.Println("stretch, landing at poll-class latency for a fraction of poll's CPU.")
	fmt.Println()

	fmt.Println("Part 2 — SQPOLL's dedicated core at saturation (QD32)")
	fmt.Println()
	w = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tkIOPS\tbusy cores\tkIOPS/core\tper-core split")
	for _, m := range []struct {
		name  string
		mode  repro.UringMode
		cores int
	}{
		{"interrupt", repro.UringInterrupt, 1},
		{"sqpoll", repro.UringSQPoll, 2},
	} {
		const ios = 12000
		sys := uringSystem(m.mode, m.cores, seed)
		res := run(sys, 32, ios, seed)
		cs := sys.CoreSet()
		now := sys.Engine().Now()
		busy := cs.BusyCores(now)
		split := ""
		for i, u := range cs.Utilization(now) {
			pin := ""
			if cs.Pinned(i) {
				pin = " pinned"
			}
			split += fmt.Sprintf("[%d%s: %.0f%%]", i, pin, u.User+u.Kernel)
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%.1f\t%s\n",
			m.name, res.IOPS()/1e3, busy, res.IOPS()/1e3/busy, split)
	}
	w.Flush()
	fmt.Println()
	fmt.Println("The SQ poll thread pins core 1 and spins at 100% whether or not")
	fmt.Println("work arrives — but it strips the submission syscall from every I/O,")
	fmt.Println("so once the device saturates, the two-core SQPOLL rig delivers more")
	fmt.Println("IOPS per busy core than the interrupt stack's single core. Below")
	fmt.Println("saturation the spin is pure waste; see `ullsim run ext-uring` for")
	fmt.Println("the crossover sweep.")
}
