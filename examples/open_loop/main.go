// Open-loop load generation walkthrough: sweep offered load against the
// ULL SSD and watch the latency hockey stick form, then run two tenants
// — a latency-sensitive reader beside a bandwidth-hog writer — on one
// device and watch the reader's tail inflate.
//
// The closed-loop engine (workload.Run) issues a new I/O only when one
// completes, so it can never offer more load than the device absorbs;
// arrival-rate load generation is how you ask the paper's real question:
// what does latency look like at 30%, 70%, 95% of saturation?
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func ullSystem(seed uint64) *core.Graph {
	dev := ssd.ZSSD()
	dev.Seed ^= seed
	return core.Build(core.Topology{
		Root:         core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: dev}},
		Precondition: 0.9,
	})
}

func region(sys *core.Graph) int64 {
	r := int64(0.9 * float64(sys.ExportedBytes()))
	return r >> 20 << 20
}

func main() {
	const seed = 99

	// 1. Calibrate: a closed-loop QD1 run measures the service time the
	// open-loop sweep is expressed against.
	cal := ullSystem(seed)
	svc := workload.Run(cal, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.RandRead, BlockSize: 4096,
			TotalIOs: 2000, WarmupIOs: 200, Region: region(cal), Seed: seed,
		},
	}).All.Mean()
	fmt.Printf("calibrated 4KiB random-read service time: %.1fus (~%.0fk IOPS at QD1)\n\n",
		svc.Micros(), 1e-3/svc.Seconds())

	// 2. The hockey stick: Poisson arrivals at rising fractions of the
	// service rate. Latency includes queueing delay — that is the point.
	fmt.Println("offered load sweep (open-loop Poisson, admission cap 1):")
	fmt.Println("load   offered kIOPS  mean us  p99 us  queued%")
	for _, rho := range []float64{0.3, 0.6, 0.9, 0.98} {
		sys := ullSystem(seed)
		rate := rho / svc.Seconds()
		res := workload.RunOpen(sys, workload.OpenJob{
			Spec: workload.Spec{
				Pattern: workload.RandRead, BlockSize: 4096,
				Duration: 40 * sim.Millisecond, WarmupTime: 4 * sim.Millisecond,
				Region: region(sys), Seed: seed,
			},
			Arrival:     workload.Arrival{Kind: workload.Poisson, Rate: rate},
			MaxInFlight: 1,
			QueueCap:    1 << 14,
		})
		fmt.Printf("%.2f   %-13.1f  %-7.1f  %-6.1f  %.1f\n",
			rho, rate/1e3, res.All.Mean().Micros(), res.All.Percentile(99).Micros(),
			100*float64(res.Deferred)/float64(res.Offered))
	}

	// 3. Overload is observable, not unbounded: offer 3x the service
	// rate into a small queue and read the drop counter.
	over := ullSystem(seed)
	res := workload.RunOpen(over, workload.OpenJob{
		Spec: workload.Spec{
			Pattern: workload.RandRead, BlockSize: 4096,
			Duration: 10 * sim.Millisecond,
			Region:   region(over), Seed: seed,
		},
		Arrival:     workload.Arrival{Kind: workload.Poisson, Rate: 3 / svc.Seconds()},
		MaxInFlight: 1,
		QueueCap:    256,
	})
	fmt.Printf("\noverload at 3x: offered %d, admitted %d, dropped %d (queue peaked at %d/256)\n",
		res.Offered, res.Admitted, res.Dropped, res.PeakQueue)

	// 4. Multi-tenant interference: the reader's own load never changes;
	// only the co-tenant's write rate does.
	fmt.Println("\ntwo tenants on one device (reader fixed at 25% load):")
	reader := workload.OpenJob{
		Spec: workload.Spec{
			Name: "reader", Pattern: workload.RandRead, BlockSize: 4096,
			Duration: 40 * sim.Millisecond, WarmupTime: 4 * sim.Millisecond,
			Seed: seed,
		},
		Arrival:     workload.Arrival{Kind: workload.Poisson, Rate: 0.25 / svc.Seconds()},
		MaxInFlight: 4,
	}
	solo := ullSystem(seed)
	reader.Region = region(solo)
	alone := workload.RunTenants(solo, reader)[0]
	fmt.Printf("  solo reader:          p99 %.1fus\n", alone.All.Percentile(99).Micros())

	shared := ullSystem(seed)
	reader.Region = region(shared)
	writer := workload.OpenJob{
		Spec: workload.Spec{
			Name: "writer", Pattern: workload.SeqWrite, BlockSize: 32 << 10,
			Duration: 40 * sim.Millisecond, WarmupTime: 4 * sim.Millisecond,
			Region: region(shared), Seed: seed,
		},
		// A bursty bulk writer: 2ms write bursts, 2ms quiet gaps.
		Arrival: workload.Arrival{
			Kind: workload.Bursty, Rate: 25_000,
			On: 2 * sim.Millisecond, Off: 2 * sim.Millisecond,
		},
		MaxInFlight: 8,
	}
	pair := workload.RunTenants(shared, reader, writer)
	fmt.Printf("  beside bursty writer: p99 %.1fus (writer %.0f MB/s)\n",
		pair[0].All.Percentile(99).Micros(), pair[1].BandwidthMBps())
}
