package core

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/spdk"
	"repro/internal/ssd"
)

func smallULL() ssd.Config {
	cfg := ssd.ZSSD()
	cfg.Channels = 4
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.PagesPerBlock = 16
	cfg.BlocksPerUnit = 16
	return cfg
}

// oneDevice builds stack st over a small ULL device.
func oneDevice(st Stack, pre float64) *Graph {
	st.Queue.Device = smallULL()
	return Build(Topology{Root: st, Precondition: pre})
}

func runOne(g *Graph, write bool) sim.Time {
	eng := g.Engine()
	start := eng.Now()
	var lat sim.Time
	g.Submit(write, 0, 4096, func() { lat = eng.Now() - start })
	eng.Run()
	g.Finalize()
	return lat
}

func TestBuildAllStacks(t *testing.T) {
	for _, kind := range []StackKind{KernelSync, KernelAsync, SPDK} {
		if lat := runOne(oneDevice(Stack{Kind: kind}, 0), false); lat <= 0 {
			t.Errorf("%v: no completion", kind)
		}
	}
}

// TestBuildFillsZeroConfigs: a Stack with nil cost tables and a zero
// NVMe config builds the calibrated defaults, so it runs exactly like
// one given them explicitly.
func TestBuildFillsZeroConfigs(t *testing.T) {
	for _, kind := range []StackKind{KernelSync, SPDK} {
		kc, sc := kernel.DefaultCosts(), spdk.DefaultCosts()
		explicit := Build(Topology{Root: Stack{Kind: kind, Kernel: &kc, SPDK: &sc,
			Queue: Queue{Device: smallULL(), NVMe: nvme.DefaultConfig()}}})
		zero := oneDevice(Stack{Kind: kind}, 0)
		want, got := runOne(explicit, true), runOne(zero, true)
		if got <= 0 {
			t.Fatalf("%v: zero-config system does not complete I/O", kind)
		}
		if got != want || zero.CPU().BusyTime() != explicit.CPU().BusyTime() {
			t.Errorf("%v: zero config ran %v / %v busy, explicit defaults %v / %v busy",
				kind, got, zero.CPU().BusyTime(), want, explicit.CPU().BusyTime())
		}
	}
}

func TestSystemPrecondition(t *testing.T) {
	g := oneDevice(Stack{}, 1.0)
	if _, ok := g.Devices()[0].FTL().Lookup(0); !ok {
		t.Fatal("precondition did not map LPN 0")
	}
	if g.Engine().Now() != 0 {
		t.Fatal("precondition consumed simulated time")
	}
}

func TestSystemCompletionMethodsDiffer(t *testing.T) {
	lat := map[kernel.Mode]sim.Time{}
	for _, m := range []kernel.Mode{kernel.Interrupt, kernel.Poll} {
		g := oneDevice(Stack{Kind: KernelSync, Mode: m}, 1.0)
		eng := g.Engine()
		total := sim.Time(0)
		n := 0
		var issue func()
		issue = func() {
			start := eng.Now()
			g.Submit(false, int64(n%32)*4096, 4096, func() {
				total += eng.Now() - start
				n++
				if n < 30 {
					issue()
				}
			})
		}
		issue()
		eng.Run()
		lat[m] = total / 30
	}
	if lat[kernel.Poll] >= lat[kernel.Interrupt] {
		t.Fatalf("poll %v not below interrupt %v", lat[kernel.Poll], lat[kernel.Interrupt])
	}
}

func TestSystemExportedBytes(t *testing.T) {
	g := oneDevice(Stack{}, 0)
	if g.ExportedBytes() != g.Devices()[0].ExportedBytes() {
		t.Fatal("ExportedBytes mismatch")
	}
}
