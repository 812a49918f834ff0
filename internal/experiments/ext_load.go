package experiments

// Extension experiments built on the open-loop workload engine: the
// paper's latency claims *under load*. ext-loadcurve sweeps offered load
// against each host stack and plots the hockey-stick latency curve the
// closed-loop engine cannot express (a fixed queue depth self-throttles
// exactly when the device saturates); ext-tenants puts a
// latency-sensitive reader beside a bandwidth-hog writer on one device
// and measures how the reader's tail inflates with the co-tenant's write
// rate (Section V's interference story as a controllable dial).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register("ext-loadcurve", "Extension: open-loop latency vs offered load per host stack", planExtLoadCurve)
	register("ext-tenants", "Extension: reader tail latency vs co-tenant write rate", planExtTenants)
}

// loadStack is one host stack of the load sweep.
type loadStack struct {
	name  string
	stack core.Stack
}

func loadStacks() []loadStack {
	return []loadStack{
		{"kernel-int", core.Stack{Kind: core.KernelSync, Mode: kernel.Interrupt}},
		{"kernel-poll", core.Stack{Kind: core.KernelSync, Mode: kernel.Poll}},
		{"spdk", core.Stack{Kind: core.SPDK}},
	}
}

// loadPoints is the offered-load sweep, as a fraction of each stack's
// calibrated service rate. The race lane trims the sweep (the detector
// costs ~10x on this simulation-heavy code).
func loadPoints() []float64 {
	if raceEnabled {
		// One near-knee point per stack: the race lane checks the code
		// path and determinism, not the sweep's shape.
		return []float64{0.95}
	}
	return []float64{0.30, 0.50, 0.70, 0.85, 0.95}
}

// loadCurveScale sizes one shard: calibration I/Os and the open-loop
// measurement window.
func loadCurveScale(o Options) (calIOs int, dur sim.Time) {
	calIOs = o.scale(300, 4000)
	dur = sim.Time(o.scale(25, 400)) * sim.Millisecond
	if raceEnabled {
		calIOs, dur = 120, 6*sim.Millisecond
	}
	return calIOs, dur
}

// loadPoint is one (stack, load) measurement.
type loadPoint struct {
	offeredIOPS          float64
	p50, p99, p999, mean sim.Time
	deferredPct          float64
	dropped              uint64
}

// measureLoadPoint calibrates the stack's service rate with a closed-loop
// QD1 run, then offers rho times that rate open-loop (Poisson arrivals)
// and measures the latency distribution from arrival to completion —
// queueing delay included, which is what bends the curve at the knee.
// Calibration and measurement run back to back on one system (the read
// calibration does not age the FTL, and building a preconditioned
// device twice per shard is the shard's dominant cost); they share the
// shard seed, so the sweep point is a paired comparison on one
// simulated device.
func measureLoadPoint(st loadStack, rho float64, o Options, seed uint64) loadPoint {
	calIOs, dur := loadCurveScale(o)
	sys := system(ull(), st.stack, seed)
	calRes := run(sys, workload.Job{
		Spec: workload.Spec{
			Pattern:   workload.RandRead,
			BlockSize: 4096,
			TotalIOs:  calIOs,
			WarmupIOs: calIOs / 10,
			Seed:      seed,
		},
	})
	rate := rho / calRes.All.Mean().Seconds()

	res := runOpen(sys, workload.OpenJob{
		Spec: workload.Spec{
			Pattern:    workload.RandRead,
			BlockSize:  4096,
			Duration:   dur,
			WarmupTime: dur / 10,
			Seed:       seed,
		},
		Arrival:     workload.Arrival{Kind: workload.Poisson, Rate: rate},
		MaxInFlight: 1,
		// the stack is the single server; queueing is explicit
		QueueCap: 1 << 14,
	})
	return loadPoint{
		offeredIOPS: rate,
		p50:         res.All.Percentile(50),
		p99:         res.All.Percentile(99),
		p999:        res.All.Percentile(99.9),
		mean:        res.All.Mean(),
		deferredPct: float64(res.Deferred) / float64(res.Offered),
		dropped:     res.Dropped,
	}
}

func planExtLoadCurve(o Options) *Plan {
	stacks := loadStacks()
	points := loadPoints()
	var shards []Shard
	for _, st := range stacks {
		for _, rho := range points {
			st, rho := st, rho
			shards = append(shards, Shard{
				Key: fmt.Sprintf("%s/r%02.0f", st.name, rho*100),
				Run: func(seed uint64) any { return measureLoadPoint(st, rho, o, seed) },
			})
		}
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("ext-loadcurve",
				"Open-loop latency vs offered load, ULL SSD 4KB random read (us)",
				"stack", "load", "offered kIOPS", "mean", "p50", "p99", "p99.9", "queued %", "dropped")
			i := 0
			for _, st := range stacks {
				for _, rho := range points {
					p := res[i].(loadPoint)
					i++
					t.AddRow(st.name, fmt.Sprintf("%.2f", rho), p.offeredIOPS/1e3,
						us(p.mean), us(p.p50), us(p.p99), us(p.p999),
						pct(p.deferredPct), fmt.Sprintf("%d", p.dropped))
				}
			}
			t.AddNote("open-loop Poisson arrivals at a fraction of each stack's calibrated QD1 service rate; latency counts queueing delay, so the tail bends into the hockey stick as load approaches saturation — the regime the paper's interference sections (III-V) describe and a closed-loop sweep cannot reach")
			t.AddNote("SPDK's knee sits at a higher absolute rate than the kernel paths: the same 0.95 load is ~2x the kernel-interrupt arrival rate")
			return []*metrics.Table{t}
		},
	}
}

// tenantFracs is the co-tenant write-rate sweep, as a fraction of the
// calibrated sequential-write service rate. 0 is the solo-reader
// baseline.
func tenantFracs() []float64 {
	if raceEnabled {
		// One heavy-writer point: the race lane checks the code path and
		// determinism, not the sweep's shape.
		return []float64{0.95}
	}
	return []float64{0, 0.25, 0.50, 0.75, 0.95}
}

const tenantWriteBS = 32 << 10

// tenantPoint is one (write-rate) measurement of the reader/writer pair.
type tenantPoint struct {
	offeredWriteMBps      float64
	readerMean, readerP50 sim.Time
	readerP99, readerP999 sim.Time
	writerMBps            float64
	readerDeferred        uint64
	writerDropped         uint64
}

// measureTenantPoint calibrates read and write service rates, then runs
// a latency-sensitive 4KiB Poisson reader at 25% read load beside a
// fixed-rate sequential bulk writer offering frac of the write service
// rate, and reports the reader's latency distribution.
func measureTenantPoint(frac float64, o Options, seed uint64) tenantPoint {
	calIOs, dur := loadCurveScale(o)

	// The read calibration shares the tenants' system (reads do not age
	// the FTL); the write calibration gets its own so its media writes
	// cannot leak into the measurement device's state.
	sys := system(ull(), core.Stack{Kind: core.KernelAsync}, seed)
	readSvc := run(sys, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.RandRead, BlockSize: 4096,
			TotalIOs: calIOs, WarmupIOs: calIOs / 10, Seed: seed,
		},
	}).All.Mean()
	calW := system(ull(), core.Stack{Kind: core.KernelAsync}, seed)
	writeSvc := run(calW, workload.Job{
		Spec: workload.Spec{
			Pattern: workload.SeqWrite, BlockSize: tenantWriteBS,
			TotalIOs: calIOs, WarmupIOs: calIOs / 10, Seed: seed,
		},
	}).All.Mean()

	reader := workload.OpenJob{
		Spec: workload.Spec{
			Name: "reader", Pattern: workload.RandRead, BlockSize: 4096,
			Duration: dur, WarmupTime: dur / 10,
			Seed: seed,
		},
		Arrival:     workload.Arrival{Kind: workload.Poisson, Rate: 0.25 / readSvc.Seconds()},
		MaxInFlight: 4,
	}
	var results []*workload.OpenResult
	if frac == 0 {
		results = runTenants(sys, reader)
	} else {
		writer := workload.OpenJob{
			Spec: workload.Spec{
				Name: "writer", Pattern: workload.SeqWrite, BlockSize: tenantWriteBS,
				Duration: dur, WarmupTime: dur / 10,
				Seed: seed,
			},
			Arrival:     workload.Arrival{Kind: workload.FixedRate, Rate: frac / writeSvc.Seconds()},
			MaxInFlight: 8,
		}
		results = runTenants(sys, reader, writer)
	}

	r := results[0]
	p := tenantPoint{
		offeredWriteMBps: frac / writeSvc.Seconds() * tenantWriteBS / 1e6,
		readerMean:       r.All.Mean(),
		readerP50:        r.All.Percentile(50),
		readerP99:        r.All.Percentile(99),
		readerP999:       r.All.Percentile(99.9),
		readerDeferred:   r.Deferred,
	}
	if len(results) > 1 {
		p.writerMBps = results[1].BandwidthMBps()
		p.writerDropped = results[1].Dropped
	}
	return p
}

func planExtTenants(o Options) *Plan {
	fracs := tenantFracs()
	var shards []Shard
	for _, frac := range fracs {
		frac := frac
		shards = append(shards, Shard{
			Key: fmt.Sprintf("w%02.0f", frac*100),
			Run: func(seed uint64) any { return measureTenantPoint(frac, o, seed) },
		})
	}
	return &Plan{
		Shards: shards,
		Merge: func(res []any) []*metrics.Table {
			t := metrics.NewTable("ext-tenants",
				"Reader tail latency vs co-tenant write rate, ULL SSD libaio (us)",
				"write load", "offered write MB/s", "achieved MB/s",
				"reader mean", "reader p50", "reader p99", "reader p99.9", "reader queued")
			i := 0
			for _, frac := range fracs {
				p := res[i].(tenantPoint)
				i++
				t.AddRow(fmt.Sprintf("%.2f", frac), p.offeredWriteMBps, p.writerMBps,
					us(p.readerMean), us(p.readerP50), us(p.readerP99), us(p.readerP999),
					fmt.Sprintf("%d", p.readerDeferred))
			}
			t.AddNote("paper Section V: on the ULL SSD reads and writes interfere in the device itself (shared channels, suspended programs, GC); the reader offers a constant 25%% load while the bulk writer's offered rate sweeps — the reader's p99/p99.9 climbs with the co-tenant's write rate even though the reader's own load never changes")
			return []*metrics.Table{t}
		},
	}
}
