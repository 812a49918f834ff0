// Quickstart: build the ULL SSD system, run a random-read job through the
// kernel polling path, and print the latency distribution — the simulated
// version of the paper's basic microbenchmark.
package main

import (
	"fmt"

	"repro"
)

func main() {
	// A Z-SSD behind the pvsync2 syscall path with polled completion,
	// preconditioned so reads touch real (simulated) flash.
	sys := repro.BuildTopology(repro.Topology{
		Root:         repro.StackOn(repro.KernelSync, repro.Poll, repro.ZSSD()),
		Precondition: 1.0,
	})

	res := repro.RunJob(sys, repro.Job{
		Spec: repro.Spec{
			Pattern:   repro.RandRead,
			BlockSize: 4096,
			TotalIOs:  50000,
			WarmupIOs: 5000,
			Seed:      1,
		},
	})

	fmt.Println("ULL SSD, 4KB random reads, pvsync2 + polling")
	fmt.Printf("  %s\n", res.All.Summarize())
	fmt.Printf("  bandwidth: %.1f MB/s  iops: %.0f\n", res.BandwidthMBps(), res.IOPS())

	u := sys.CPU().Utilization(sys.Engine().Now())
	fmt.Printf("  cpu: %.1f%% user, %.1f%% kernel, %.1f%% idle\n", u.User, u.Kernel, u.Idle)
	fmt.Printf("  the polling cost: %.1f%% of the core spent in blk_mq_poll/nvme_poll\n",
		u.Kernel)
	fmt.Println()
	fmt.Println("Compare with interrupts by changing Mode to repro.Interrupt,")
	fmt.Println("or run the full comparison: go run ./examples/completion_methods")
}
