package ssd_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// A host write larger than the whole write buffer (2 MiB on the Z-SSD)
// can never fit; it is admitted once the buffer is empty instead of
// waiting forever. Writes that fit complete as before. Every run must
// complete all its I/Os, drain the buffer and leave a consistent FTL.
func TestWriteLargerThanBufferCompletes(t *testing.T) {
	for _, bs := range []int{1 << 20, 2 << 20, 4 << 20} {
		g := core.Build(core.Topology{
			Root: core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: ssd.ZSSD()}},
		})
		dev := g.Devices()[0]
		res := workload.Run(g, workload.Job{
			Spec: workload.Spec{
				Pattern:   workload.SeqWrite,
				BlockSize: bs,
				TotalIOs:  4,
				Seed:      1,
			},
			QueueDepth: 1,
		})
		if res.IOs != 4 {
			t.Errorf("%d-byte writes: %d of 4 completed", bs, res.IOs)
		}
		if used := dev.BufferUsed(); used != 0 {
			t.Errorf("%d-byte writes: buffer holds %d bytes after the run", bs, used)
		}
		if err := dev.FTL().Check(); err != nil {
			t.Errorf("%d-byte writes: %v", bs, err)
		}
	}
}
