package repro_test

import (
	"fmt"

	"repro"
)

// ExampleRunJob runs a small random-read job on the ULL SSD and reports
// the measured I/O count.
func ExampleRunJob() {
	sys := repro.BuildTopology(repro.Topology{
		Root:         repro.StackOn(repro.KernelSync, repro.Interrupt, repro.ZSSD()),
		Precondition: 1.0,
	})
	res := repro.RunJob(sys, repro.Job{
		Spec: repro.Spec{
			Pattern:   repro.RandRead,
			BlockSize: 4096,
			TotalIOs:  1000,
			Seed:      1,
		},
	})
	fmt.Println("measured I/Os:", res.IOs)
	fmt.Println("reads recorded:", res.Read.Count())
	// Output:
	// measured I/Os: 1000
	// reads recorded: 1000
}

// ExampleStackOn compares polled and interrupt-driven completion on
// the ULL SSD — the paper's Figure 10 in four lines per mode.
func ExampleStackOn() {
	mean := func(stack repro.StackLayer) repro.Time {
		sys := repro.BuildTopology(repro.Topology{Root: stack, Precondition: 1.0})
		res := repro.RunJob(sys, repro.Job{
			Spec: repro.Spec{
				Pattern: repro.RandRead, BlockSize: 4096, TotalIOs: 2000, Seed: 3,
			},
		})
		return res.All.Mean()
	}
	poll := mean(repro.StackOn(repro.KernelSync, repro.Poll, repro.ZSSD()))
	intr := mean(repro.StackOn(repro.KernelSync, repro.Interrupt, repro.ZSSD()))
	fmt.Println("polling beats interrupts:", poll < intr)
	// Output:
	// polling beats interrupts: true
}

// ExampleExperimentByID regenerates a paper artifact programmatically.
func ExampleExperimentByID() {
	e, ok := repro.ExperimentByID("tab1")
	fmt.Println("found:", ok)
	tables := e.Run(repro.ExperimentOptions{Quick: true})
	fmt.Println("tables:", len(tables))
	fmt.Println("id:", tables[0].ID)
	// Output:
	// found: true
	// tables: 1
	// id: tab1
}

// ExampleNewKV serves a keyed YCSB-style job from the LSM store tier
// through the same engine that drives block jobs.
func ExampleNewKV() {
	dev := repro.ZSSD()
	dev.Seed ^= 7
	host := repro.BuildTopology(repro.Topology{
		Root: repro.FSOn(repro.FSConfig{
			CacheBytes: 4 << 20,
			Journal:    repro.OrderedJournal,
		}, repro.StackOn(repro.KernelAsync, 0, dev)),
		Precondition: 0.9,
	})
	store := repro.NewKV(host, repro.KVConfig{
		MemtableBytes: 64 << 10,
		CacheBytes:    512 << 10,
	})
	store.Preload(8192, 1024)
	res := repro.RunServiceJob(store, repro.Job{
		Spec: repro.Spec{
			Pattern: repro.RandRW, WriteFraction: 0.2, BlockSize: 1024,
			Keyspace: repro.Keyspace{Keys: 8192, Dist: repro.ZipfianKeys},
			TotalIOs: 1000, Seed: 7,
		},
		QueueDepth: 4,
	})
	st := store.Stats()
	fmt.Println("measured ops:", res.IOs)
	fmt.Println("puts group-committed:", st.WALSyncs < st.Puts)
	fmt.Println("memtable flushed:", st.Flushes > 0)
	fmt.Println("wear reported:", len(res.Wear) == 1)
	// Output:
	// measured ops: 1000
	// puts group-committed: true
	// memtable flushed: true
	// wear reported: true
}
