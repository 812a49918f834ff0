package repro_test

import (
	"strings"
	"testing"

	"repro"
)

func TestFacadeQuickstart(t *testing.T) {
	sys := repro.BuildTopology(repro.Topology{
		Root:         repro.StackOn(repro.KernelSync, repro.Poll, repro.ZSSD()),
		Precondition: 1.0,
	})
	res := repro.RunJob(sys, repro.Job{
		Spec: repro.Spec{
			Pattern:   repro.RandRead,
			BlockSize: 4096,
			TotalIOs:  500,
			Seed:      1,
		},
	})
	if res.IOs != 500 {
		t.Fatalf("IOs = %d", res.IOs)
	}
	s := res.All.Summarize()
	if s.Mean <= 0 || s.P5N < s.P50 {
		t.Fatalf("summary inconsistent: %+v", s)
	}
}

func TestFacadeDeviceConfigs(t *testing.T) {
	ull, nvme := repro.ZSSD(), repro.NVMe750()
	if ull.NAND.ReadLatency >= nvme.NAND.ReadLatency {
		t.Fatal("Z-NAND must read faster than conventional flash")
	}
	if ull.ExportedBytes() <= 0 || nvme.ExportedBytes() <= 0 {
		t.Fatal("exported capacities must be positive")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	all := repro.Experiments()
	if len(all) < 24 {
		t.Fatalf("experiments = %d, want >= 24 (Table I + Figures 4-23 + extensions)", len(all))
	}
	e, ok := repro.ExperimentByID("tab1")
	if !ok {
		t.Fatal("tab1 missing")
	}
	tables := e.Run(repro.ExperimentOptions{Quick: true})
	if len(tables) == 0 {
		t.Fatal("tab1 produced nothing")
	}
	var sb strings.Builder
	if err := tables[0].Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Z-NAND") {
		t.Fatal("tab1 table incomplete")
	}
}

func TestFacadeNBD(t *testing.T) {
	m := repro.NewNBDModel(repro.SPDKNBD(repro.ZSSD()))
	done := false
	m.FileRead(0, 4096, func() { done = true })
	m.Engine().Run()
	if !done {
		t.Fatal("NBD read never completed")
	}
}

func TestFacadeAllStacksComplete(t *testing.T) {
	for _, stack := range []repro.StackLayer{
		repro.StackOn(repro.KernelSync, repro.Interrupt, repro.ZSSD()),
		repro.StackOn(repro.KernelSync, repro.Hybrid, repro.ZSSD()),
		repro.StackOn(repro.KernelAsync, 0, repro.ZSSD()),
		repro.StackOn(repro.SPDK, 0, repro.ZSSD()),
	} {
		sys := repro.BuildTopology(repro.Topology{Root: stack, Precondition: 0.5})
		res := repro.RunJob(sys, repro.Job{
			Spec: repro.Spec{
				Pattern:   repro.SeqRead,
				BlockSize: 4096,
				TotalIOs:  100,
				Region:    1 << 20,
				Seed:      2,
			},
		})
		if res.IOs != 100 {
			t.Fatalf("stack %v/%v: %d IOs", stack.Kind, stack.Mode, res.IOs)
		}
	}
}

func TestFacadeTimeUnits(t *testing.T) {
	if repro.Millisecond != 1000*repro.Microsecond || repro.Second != 1000*repro.Millisecond {
		t.Fatal("time unit arithmetic broken")
	}
	kc := repro.DefaultKernelCosts()
	if kc.PollIter() <= 0 {
		t.Fatal("kernel costs")
	}
	sc := repro.DefaultSPDKCosts()
	if sc.PollIter() <= 0 {
		t.Fatal("spdk costs")
	}
}

func TestFacadeTopology(t *testing.T) {
	small := func() repro.DeviceConfig {
		cfg := repro.ZSSD()
		cfg.Channels = 4
		cfg.WaysPerChannel = 2
		cfg.PagesPerBlock = 16
		cfg.BlocksPerUnit = 16
		return cfg
	}
	vol := repro.BuildTopology(repro.Topology{
		Root: repro.StripedVolume(64<<10,
			repro.StackOn(repro.KernelAsync, 0, small()),
			repro.StackOn(repro.KernelAsync, 0, small()),
		),
		Precondition: 1.0,
	})
	res := repro.RunJob(vol, repro.Job{
		Spec: repro.Spec{
			Pattern: repro.RandRead, BlockSize: 4096, TotalIOs: 300, Seed: 3,
		},
		QueueDepth: 4,
	})
	if res.IOs != 300 {
		t.Fatalf("IOs = %d", res.IOs)
	}
	if len(vol.Devices()) != 2 {
		t.Fatalf("devices = %d", len(vol.Devices()))
	}
	stats := vol.VolumeStats()
	if len(stats) != 1 || stats[0].Kind != repro.Striped || stats[0].HostIOs == 0 {
		t.Fatalf("volume stats = %+v", stats)
	}

	tier := repro.BuildTopology(repro.Topology{
		Root: repro.TieredVolume(64<<10, 8*(64<<10),
			repro.StackOn(repro.KernelAsync, 0, small()),
			repro.StackOn(repro.KernelAsync, 0, small()),
		),
		Precondition: 1.0,
	})
	res = repro.RunJob(tier, repro.Job{
		Spec: repro.Spec{
			Pattern: repro.RandRW, WriteFraction: 0.5, BlockSize: 4096, TotalIOs: 400, Seed: 4,
		},
		QueueDepth: 4,
	})
	if res.IOs != 400 {
		t.Fatalf("tiered IOs = %d", res.IOs)
	}
	ts := tier.VolumeStats()[0]
	if ts.FastWrites == 0 || ts.Migrations == 0 {
		t.Fatalf("tier never absorbed or migrated: %+v", ts)
	}
}

// TestFacadeFS drives the filesystem layer end to end through the
// public API: FSOn composition, buffered I/O, the SyncEvery knob, and
// the fsync histogram + FS stats on the result side.
func TestFacadeFS(t *testing.T) {
	small := func() repro.DeviceConfig {
		cfg := repro.ZSSD()
		cfg.Channels = 4
		cfg.WaysPerChannel = 2
		cfg.PagesPerBlock = 16
		cfg.BlocksPerUnit = 16
		return cfg
	}
	fsys := repro.BuildTopology(repro.Topology{
		Root: repro.FSOn(repro.FSConfig{
			CacheBytes:   1 << 20,
			Journal:      repro.OrderedJournal,
			JournalBytes: 1 << 20, // the shrunk test device is ~4MiB
		}, repro.StackOn(repro.KernelAsync, 0, small())),
		Precondition: 1.0,
	})
	res := repro.RunJob(fsys, repro.Job{
		Spec: repro.Spec{
			Pattern: repro.RandWrite, BlockSize: 4096, TotalIOs: 200, SyncEvery: 20, Seed: 5,
		},
		QueueDepth: 2,
	})
	if res.IOs != 200 {
		t.Fatalf("IOs = %d", res.IOs)
	}
	if res.Fsyncs != 10 || res.Fsync.Count() == 0 {
		t.Fatalf("fsyncs = %d (recorded %d), want 10", res.Fsyncs, res.Fsync.Count())
	}
	st := fsys.FSStats()
	if len(st) != 1 || st[0].Fsyncs != 10 || st[0].Barriers != 20 || st[0].JournalWrites != 20 {
		t.Fatalf("fs stats = %+v, want 10 fsyncs with 2 barriers + 2 records each", st)
	}
	// The durability bill must exceed the buffered write's memcpy time.
	if res.Fsync.Mean() <= res.Write.Mean() {
		t.Fatalf("fsync mean %v not above buffered write mean %v", res.Fsync.Mean(), res.Write.Mean())
	}
	// A zero-value FSConfig is a passthrough: no filesystem layer built.
	bare := repro.BuildTopology(repro.Topology{
		Root:         repro.FSOn(repro.FSConfig{}, repro.StackOn(repro.KernelAsync, 0, small())),
		Precondition: 1.0,
	})
	if len(bare.FSStats()) != 0 {
		t.Fatal("zero-value FSConfig built a filesystem layer")
	}
}
