// Striped-volume walkthrough: compose multi-device topologies behind
// the one Target contract and drive them with the unchanged workload
// engine.
//
// Part 1 stripes 4KB random reads across 1..4 Z-SSDs per host stack and
// prints the IOPS scaling curve — near-linear for the asynchronous
// stacks, sub-linear for the synchronous kernel path whose members
// serve one I/O at a time (the router queues behind them).
//
// Part 2 builds a tiered volume — a small Z-SSD write-absorbing tier in
// front of an NVMe-750-class backend — and pushes enough random writes
// through it to cross the migration watermark, then prints where the
// writes landed and what migration did to the read tail.
//
// The registered experiments ext-stripe and ext-tier run the same
// topologies as sharded sweeps: `go run ./cmd/ullsim run ext-stripe`.
package main

import (
	"fmt"

	"repro"
)

const seed = 42

// stripe builds a width-way RAID-0 of Z-SSDs, each behind a copy of
// leaf.
func stripe(leaf repro.StackLayer, width int) *repro.TopologySystem {
	leaf.Queue.Device = repro.ZSSD()
	leaf.Queue.Device.Seed ^= seed
	children := make([]repro.Layer, width)
	for i := range children {
		children[i] = leaf
	}
	return repro.BuildTopology(repro.Topology{
		Root:         repro.StripedVolume(64<<10, children...),
		Precondition: 0.9,
	})
}

func region(sys repro.Host) int64 {
	return int64(0.9*float64(sys.ExportedBytes())) >> 20 << 20
}

func main() {
	// --- Part 1: the scaling curve ---
	fmt.Println("striped Z-SSD volume, 4KB random read, per-member QD 2:")
	fmt.Println("stack        width  kIOPS   vs w1   p99 us")
	for _, st := range []struct {
		name string
		leaf repro.StackLayer
	}{
		{"kernel-poll", repro.StackLayer{Kind: repro.KernelSync, Mode: repro.Poll}},
		{"libaio", repro.StackLayer{Kind: repro.KernelAsync}},
		{"spdk", repro.StackLayer{Kind: repro.SPDK}},
	} {
		base := 0.0
		for _, width := range []int{1, 2, 4} {
			vol := stripe(st.leaf, width)
			res := repro.RunJob(vol, repro.Job{
				Spec: repro.Spec{
					Pattern: repro.RandRead, BlockSize: 4096, TotalIOs: 3000, WarmupIOs: 300,
					Region: region(vol), Seed: seed,
				},
				QueueDepth: 2 * width,
			})
			if base == 0 {
				base = res.IOPS()
			}
			fmt.Printf("%-12s %5d  %6.1f  %5.2fx  %7.2f\n",
				st.name, width, res.IOPS()/1e3, res.IOPS()/base,
				res.All.Percentile(99).Micros())
		}
	}

	// --- Part 2: the write-absorbing tier ---
	// A 16MiB fast tier (256 chunks of 64KiB) over the conventional
	// NVMe SSD: random writes allocate tier chunks until occupancy
	// crosses the 90% watermark, then the volume migrates chunks to the
	// backend — migration traffic contends with the host's reads.
	fmt.Println("\ntiered volume (Z-SSD tier over NVMe SSD), 4KB random 50/50 mix, QD 4:")
	tier := repro.BuildTopology(repro.Topology{
		Root: repro.TieredVolume(64<<10, 16<<20,
			repro.StackOn(repro.KernelAsync, 0, repro.ZSSD()),
			repro.StackOn(repro.KernelAsync, 0, repro.NVMe750()),
		),
		Precondition: 0.9,
	})
	res := repro.RunJob(tier, repro.Job{
		Spec: repro.Spec{
			Pattern: repro.RandRW, WriteFraction: 0.5, BlockSize: 4096, TotalIOs: 4000, WarmupIOs: 400,
			Region: region(tier), Seed: seed,
		},
		QueueDepth: 4,
	})
	vs := tier.VolumeStats()[0]
	fmt.Printf("  writes absorbed by the tier: %d (write-around: %d)\n", vs.FastWrites, vs.WriteAround)
	fmt.Printf("  chunks migrated to backend:  %d (%.1f MB)\n", vs.Migrations, float64(vs.MigratedBytes)/1e6)
	fmt.Printf("  tier occupancy:              %d of %d chunks\n", vs.FastInUse, vs.FastChunks)
	fmt.Printf("  write latency: mean %.1fus  p99.9 %.1fus (tier-speed)\n",
		res.Write.Mean().Micros(), res.Write.Percentile(99.9).Micros())
	fmt.Printf("  read latency:  mean %.1fus  p99.9 %.1fus (backend + migration contention)\n",
		res.Read.Mean().Micros(), res.Read.Percentile(99.9).Micros())
}
