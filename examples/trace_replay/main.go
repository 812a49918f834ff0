// Trace replay: record a workload's I/O trace on the conventional NVMe
// SSD, then replay the identical request stream (same offsets, same issue
// times) against the ULL SSD — the "what would this workload gain from an
// ultra-low-latency device?" question a characterization study exists to
// answer.
package main

import (
	"fmt"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// 1. Record a mixed workload on the NVMe SSD.
	rec := trace.NewRecorder()
	nvmeSys := core.Build(core.Topology{
		Root:         core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: ssd.NVMe750()}},
		Precondition: 0.9,
	})
	region := int64(0.9*float64(nvmeSys.ExportedBytes())) >> 20 << 20
	res := workload.Run(nvmeSys, workload.Job{
		Spec: workload.Spec{
			Pattern:       workload.RandRW,
			WriteFraction: 0.3,
			BlockSize:     4096,
			TotalIOs:      20000,
			Region:        region,
			Seed:          21,
			Trace:         rec,
		},
		QueueDepth: 4,
	})
	fmt.Printf("recorded %d I/Os on the NVMe SSD (mean %.1fus)\n",
		rec.Len(), res.All.Mean().Micros())

	// 2. Persist and reload the trace (CSV round trip).
	f, err := os.CreateTemp("", "ullsim-trace-*.csv")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.Remove(f.Name())
	if err := rec.WriteCSV(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if _, err := f.Seek(0, 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	events, err := trace.ReadCSV(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("trace file: %d events via %s\n", len(events), f.Name())

	// 3. Replay the identical stream, open loop, against the ULL SSD.
	ullSys := core.Build(core.Topology{
		Root: core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: ssd.ZSSD()}},
		// ULL device is larger; same offsets stay valid
		Precondition: 1.0,
	})
	out := trace.NewRecorder()
	trace.Replay(ullSys.Engine(), ullSys, events, out)
	ullSys.Engine().Run()

	var nvmeHist, ullHist histo
	for _, e := range events {
		nvmeHist.add(e.Latency)
	}
	for _, e := range out.Events() {
		ullHist.add(e.Latency)
	}
	fmt.Println()
	fmt.Printf("same request stream, two devices:\n")
	fmt.Printf("  NVMe SSD: mean %8.1fus   max %8.1fus\n", nvmeHist.mean().Micros(), nvmeHist.max.Micros())
	fmt.Printf("  ULL SSD:  mean %8.1fus   max %8.1fus\n", ullHist.mean().Micros(), ullHist.max.Micros())
	fmt.Printf("  speedup:  %.1fx on the mean\n",
		float64(nvmeHist.mean())/float64(ullHist.mean()))
}

type histo struct {
	sum repro.Time
	n   int64
	max repro.Time
}

func (h *histo) add(v repro.Time) {
	h.sum += v
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *histo) mean() repro.Time {
	if h.n == 0 {
		return 0
	}
	return h.sum / repro.Time(h.n)
}
