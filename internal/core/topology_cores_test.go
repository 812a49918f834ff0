package core

import (
	"testing"

	"repro/internal/ssd"
	"repro/internal/uring"
)

func tinyDev(seed uint64) ssd.Config {
	cfg := ssd.ZSSD()
	cfg.Channels = 2
	cfg.WaysPerChannel = 1
	cfg.PlanesPerDie = 1
	cfg.PagesPerBlock = 16
	cfg.BlocksPerUnit = 16
	cfg.Seed = seed
	return cfg
}

// TestCoresAxisLegacyDefault pins the N=1 lowering: a topology without a
// Cores value builds a one-core, non-arbitrating set whose aggregate IS
// core 0 — the historical accounting model.
func TestCoresAxisLegacyDefault(t *testing.T) {
	g := Build(Topology{Root: Stack{Kind: KernelAsync, Queue: Queue{Device: tinyDev(1)}}})
	cs := g.CoreSet()
	if cs.N() != 1 || cs.Arbitrating() {
		t.Fatalf("default topology built %d arbitrating=%v cores", cs.N(), cs.Arbitrating())
	}
	if g.CPU() != cs.Core(0) {
		t.Fatal("legacy aggregate view is not core 0 itself")
	}
}

// TestCoresAxisRoundRobin verifies leaf stacks spread over the cores and
// the per-core charges land apart.
func TestCoresAxisRoundRobin(t *testing.T) {
	g := Build(Topology{
		Cores: 2,
		Root: Volume{Kind: Striped, Chunk: 64 * 1024, Children: []Layer{
			Stack{Kind: KernelAsync, Queue: Queue{Device: tinyDev(1)}},
			Stack{Kind: KernelAsync, Queue: Queue{Device: tinyDev(2)}},
		}},
	})
	done := 0
	for i := 0; i < 8; i++ {
		g.Submit(false, int64(i)*64*1024, 64*1024, func() { done++ })
	}
	g.Engine().Run()
	if done != 8 {
		t.Fatalf("completed %d of 8", done)
	}
	cs := g.CoreSet()
	if cs.Core(0).BusyTime() == 0 || cs.Core(1).BusyTime() == 0 {
		t.Fatalf("stripe members did not spread over cores: busy %v / %v",
			cs.Core(0).BusyTime(), cs.Core(1).BusyTime())
	}
	agg := g.CPU()
	if agg.BusyTime() != cs.Core(0).BusyTime()+cs.Core(1).BusyTime() {
		t.Fatal("aggregate view does not sum the per-core charges")
	}
}

// TestCoresAxisSPDKPins verifies the reactor claims a core exclusively
// and the other stack lands elsewhere.
func TestCoresAxisSPDKPins(t *testing.T) {
	g := Build(Topology{
		Cores: 2,
		Root: Volume{Kind: Concat, Children: []Layer{
			Stack{Kind: SPDK, Queue: Queue{Device: tinyDev(1)}},
			Stack{Kind: KernelAsync, Queue: Queue{Device: tinyDev(2)}},
		}},
	})
	cs := g.CoreSet()
	if !cs.Pinned(0) {
		t.Fatal("SPDK reactor did not pin its core")
	}
	if cs.Pinned(1) {
		t.Fatal("kernel stack pinned a core")
	}
}

// TestCoresAxisSQPollDrawsSecondCore verifies the SQPOLL thread gets its
// own pinned core beside the submitter.
func TestCoresAxisSQPollDrawsSecondCore(t *testing.T) {
	g := Build(Topology{
		Cores: 2,
		Root: Stack{Kind: IOUring, Uring: &uring.Config{Mode: uring.SQPoll},
			Queue: Queue{Device: tinyDev(1)}},
	})
	cs := g.CoreSet()
	if cs.Pinned(0) || !cs.Pinned(1) {
		t.Fatalf("pin state: core0=%v core1=%v, want submitter free, SQPOLL pinned",
			cs.Pinned(0), cs.Pinned(1))
	}
	done := 0
	for i := 0; i < 4; i++ {
		g.Submit(false, int64(i)*4096, 4096, func() { done++ })
	}
	g.Engine().Run()
	g.Finalize()
	if done != 4 {
		t.Fatalf("completed %d of 4", done)
	}
	if cs.Core(1).BusyTime() == 0 {
		t.Fatal("SQPOLL core never charged")
	}
}

// TestIOUringSystemShorthand drives a one-device io_uring system end to
// end.
func TestIOUringSystemShorthand(t *testing.T) {
	g := Build(Topology{Root: Stack{Kind: IOUring, Queue: Queue{Device: tinyDev(1)}}})
	done := 0
	for i := 0; i < 4; i++ {
		g.Submit(false, int64(i)*4096, 4096, func() { done++ })
	}
	g.Engine().Run()
	g.Finalize()
	if done != 4 {
		t.Fatalf("completed %d of 4", done)
	}
	if g.Serial() {
		t.Fatal("io_uring reported serial")
	}
}
