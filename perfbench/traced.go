package main

// The traced run: per-layer metrics. After the direct set-up split, half
// the budget repeats the workload untraced under a CPU profile (host self
// time per package and the simulated counts); the other half alternates
// plain repetitions (host time per layer) with repetitions that record
// per-I/O phase breakdowns (sim-time phase shares and the probe's
// host-time overhead).

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// setupSamples is how many times each device is built for the set-up
// split; the median is reported.
const setupSamples = 3

func phaseNames() []string {
	names := make([]string, probe.NumPhases)
	for i := range names {
		names[i] = probe.Phase(i).String()
	}
	return names
}

func traced(w benchWorkload, seed uint64, sc scale, budget time.Duration, ref *checker) (result, error) {
	start := time.Now()
	m := map[string]metric{}
	deviceSplit(m)

	// First half: untraced repetitions under the CPU profile.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	var first *rep
	once := func() rep { return w.run(seed, sc) }
	att, failed := repeat(w.name, budget/2-time.Since(start), 1, ref, once, func(r *rep) {
		if first == nil {
			first = r
		}
	})
	pprof.StopCPUProfile()

	// Second half: plain and traced repetitions alternate, so host-speed
	// drift cancels out of the probe's overhead and no profiler inflates
	// the per-layer host times.
	prev := probe.Default()
	n := 0
	alternate := func() rep {
		probe.SetDefault(probe.Config{Breakdown: n%2 == 1})
		return w.run(seed, sc)
	}
	var wall, tracedWall, build, runT, busy []float64
	var phases [probe.NumPhases]sim.Time
	a, f := repeat(w.name, budget-time.Since(start), 2, ref, alternate, func(r *rep) {
		defer func() { n++ }()
		if n%2 == 1 {
			phases = r.Layer.Phases
			tracedWall = append(tracedWall, r.Wall.Seconds())
			return
		}
		wall = append(wall, r.Wall.Seconds())
		build = append(build, r.Build.Seconds())
		runT = append(runT, r.Run.Seconds())
		var host time.Duration
		for _, p := range r.Points {
			host += p.Host
		}
		busy = append(busy, host.Seconds()/(float64(w.workers)*r.Wall.Seconds()))
	})
	probe.SetDefault(prev)
	att += a
	failed += f

	shares, err := selfShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	c := first.Layer // every repetition's counts are identical
	set := func(name string, v float64) { m[name] = metric{Value: v} }
	set("core.build_s", median(build))
	set("core.builds", float64(c.Builds))
	set("workload.run_s", median(runT))
	set("workload.ops", float64(c.Ops))
	set("sim.events", float64(c.Events))
	set("sim.ns_per_event", ratio(median(runT)*1e9, float64(c.Events)))
	set("ssd.host_writes", float64(c.HostWrites))
	set("ssd.flash_programs", float64(c.FlashPrograms))
	set("ssd.gc_migrations", float64(c.GCMigrations))
	set("ssd.erases", float64(c.Erases))
	set("ssd.write_amp", ratio(float64(c.HostSlots+c.GCSlots), float64(c.HostSlots)))
	set("ssd.cache_hits", float64(c.CacheHits))
	set("ssd.write_stalls", float64(c.WriteStalls))
	set("flash.busy_frac", ratio(float64(c.FlashBusy), float64(c.FlashSpan)))
	set("flash.suspends", float64(c.Suspends))
	set("cpu.queued", float64(c.CPUQueued))
	set("cpu.queue_wait_us", c.CPUWait.Micros())
	set("fs.hit_ratio", ratio(float64(c.FSHits), float64(c.FSHits+c.FSMisses)))
	set("fs.writeback_pages", float64(c.WritebackPages))
	set("fs.journal_writes", float64(c.JournalWrites))
	set("fs.barriers", float64(c.Barriers))
	set("kv.wal_syncs", float64(c.WALSyncs))
	set("kv.puts_per_wal_sync", ratio(float64(c.BatchedPuts), float64(c.Batches)))
	set("kv.flushes", float64(c.Flushes))
	set("kv.compactions", float64(c.Compactions))
	set("kv.compact_mb", float64(c.CompactBytes)/(1<<20))
	set("kv.stall_mb", float64(c.StallBytes)/(1<<20))
	set("kv.block_reads", float64(c.BlockReads))
	set("orchestrator.busy_frac", median(busy))
	set("probe.overhead_ratio", ratio(median(tracedWall), median(wall)))
	var total sim.Time
	for _, d := range phases {
		total += d
	}
	for i, name := range phaseNames() {
		set("phase."+name+".share", ratio(float64(phases[i]), float64(total)))
	}
	for _, pkg := range hostPackages {
		set("host.self."+pkg, shares[pkg])
	}
	for _, d := range perLayer() {
		v, ok := m[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s not measured", d.name)
		}
		v.Unit = d.unit
		m[d.name] = v
	}
	return result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: m}, nil
}

// deviceSplit times ssd.NewDevice and Precondition for each device class
// directly and records the heap each preconditioned device retains.
func deviceSplit(m map[string]metric) {
	for _, dev := range sweepDevices {
		var newMs, preMs, heapMB []float64
		for i := 0; i < setupSamples; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			d := ssd.NewDevice(dev.cfg(), sim.NewEngine())
			t1 := time.Now()
			d.Precondition(precondition)
			t2 := time.Now()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(d)
			newMs = append(newMs, float64(t1.Sub(t0))/float64(time.Millisecond))
			preMs = append(preMs, float64(t2.Sub(t1))/float64(time.Millisecond))
			heapMB = append(heapMB, (float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20))
		}
		m["ssd.new_device_ms."+dev.name] = metric{Value: median(newMs)}
		m["ssd.precondition_ms."+dev.name] = metric{Value: median(preMs)}
		m["ssd.heap_mb."+dev.name] = metric{Value: median(heapMB)}
	}
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
