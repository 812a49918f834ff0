package ssd_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// A device allocates mapping storage only for what a run writes:
// building a preconditioned Z-SSD stack costs well under the 15 MB its
// flat mapping would, and a run that only reads allocates none.
func TestBuildAllocatesNoMapping(t *testing.T) {
	build := func() *core.Graph {
		return core.Build(core.Topology{
			Root:         core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: ssd.ZSSD()}},
			Precondition: 0.9,
		})
	}
	build() // warm any one-time package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := build()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("building a preconditioned Z-SSD allocated %d bytes, want < 1 MiB", got)
	}
	workload.Run(g, workload.Job{
		Spec: workload.Spec{
			Pattern:   workload.RandRead,
			BlockSize: 4096,
			TotalIOs:  5000,
			Region:    int64(0.9*float64(g.ExportedBytes())) >> 20 << 20,
			Seed:      1,
		},
		QueueDepth: 8,
	})
	if l2p, p2l := g.Devices()[0].MappingAllocated(); l2p || p2l {
		t.Errorf("a read-only run allocated mapping storage: l2p %v, p2l %v", l2p, p2l)
	}
}
