package workload

import (
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestOpenLoopFixedRateCounts(t *testing.T) {
	res := RunOpen(asyncSys(), OpenJob{
		Spec: Spec{
			Pattern:   RandRead,
			BlockSize: 4096,
			Duration:  10 * sim.Millisecond,
			Seed:      7,
		},
		Arrival: Arrival{Kind: FixedRate, Rate: 50_000},
	})
	// 50k IOPS over 10ms = 500 arrivals (the first fires at t=0, the
	// 500th at 9.98ms; the one at exactly 10ms is past the deadline).
	if res.Offered != 500 {
		t.Fatalf("Offered = %d, want 500", res.Offered)
	}
	if res.Admitted+res.Dropped != res.Offered {
		t.Fatalf("admitted %d + dropped %d != offered %d", res.Admitted, res.Dropped, res.Offered)
	}
	if res.IOs != res.Admitted {
		t.Fatalf("measured %d != admitted %d (no warmup: every admitted I/O measured)", res.IOs, res.Admitted)
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d at 50k IOPS against an idle device", res.Dropped)
	}
	if res.Wall <= 0 || res.IOPS() <= 0 {
		t.Fatal("derived rates not positive")
	}
}

// openDigest flattens the fields determinism must pin.
type openDigest struct {
	offered, admitted, deferred, dropped, ios uint64
	peak                                      int
	wall, mean, p99, max                      sim.Time
}

func digest(r *OpenResult) openDigest {
	return openDigest{
		offered: r.Offered, admitted: r.Admitted, deferred: r.Deferred,
		dropped: r.Dropped, ios: r.IOs, peak: r.PeakQueue,
		wall: r.Wall, mean: r.All.Mean(), p99: r.All.Percentile(99), max: r.All.Max(),
	}
}

func TestOpenLoopPoissonDeterministic(t *testing.T) {
	job := OpenJob{
		Spec: Spec{
			Pattern:   RandRW,
			BlockSize: 4096, WriteFraction: 0.3,
			Duration: 8 * sim.Millisecond,
			Seed:     11,
		},
		Arrival: Arrival{Kind: Poisson, Rate: 80_000},
	}
	a := digest(RunOpen(asyncSys(), job))
	b := digest(RunOpen(asyncSys(), job))
	if a != b {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
	job.Seed = 12
	c := digest(RunOpen(asyncSys(), job))
	if a == c {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestOpenLoopBurstyDeterministic(t *testing.T) {
	job := OpenJob{
		Spec: Spec{
			Pattern:   RandRead,
			BlockSize: 4096,
			Duration:  10 * sim.Millisecond,
			Seed:      5,
		},
		Arrival: Arrival{
			Kind: Bursty, Rate: 200_000,
			On: 500 * sim.Microsecond, Off: 1500 * sim.Microsecond,
		},
	}
	a := digest(RunOpen(asyncSys(), job))
	b := digest(RunOpen(asyncSys(), job))
	if a != b {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
	if a.offered == 0 {
		t.Fatal("bursty process generated no arrivals")
	}
	// On-off duty cycle 25%: the offered count must sit well below an
	// always-on 200k process (2000 arrivals over 10ms).
	if a.offered > 1200 {
		t.Fatalf("bursty offered %d arrivals, want far below always-on 2000", a.offered)
	}
}

// TestOpenLoopBurstyArrivalsRespectWindows pins the on-off structure:
// every arrival timestamp must fall inside an On window.
func TestOpenLoopBurstyArrivalsRespectWindows(t *testing.T) {
	rng := sim.NewRNG(3)
	on, off := 100*sim.Microsecond, 300*sim.Microsecond
	c := newArrivalClock(Arrival{Kind: Bursty, Rate: 500_000, On: on, Off: off}, 0, rng)
	cycle := on + off
	for i := 0; i < 2000; i++ {
		at := c.pop()
		if p := at % cycle; p >= on {
			t.Fatalf("arrival %d at %v lands %v into the cycle, past the On window", i, at, p)
		}
	}
}

// TestOpenLoopOverloadBoundedAndDeterministic drives arrivals far above
// the service rate with a tiny queue: the run must terminate, drop
// deterministically, and never hold more than QueueCap arrivals.
func TestOpenLoopOverloadBoundedAndDeterministic(t *testing.T) {
	job := OpenJob{
		Spec: Spec{
			Pattern:   RandRead,
			BlockSize: 4096, // ~10x beyond service
			Duration:  4 * sim.Millisecond,
			Seed:      9,
		},
		Arrival:  Arrival{Kind: Poisson, Rate: 5_000_000},
		QueueCap: 64,
	}
	sys := syncSys(kernel.Poll) // admission cap clamps to 1
	a := digest(RunOpen(sys, job))
	if a.dropped == 0 {
		t.Fatal("overload with a full cap and queue reported no drops")
	}
	if a.deferred == 0 {
		t.Fatal("overload reported no deferred arrivals")
	}
	if a.peak > 64 {
		t.Fatalf("queue peaked at %d, cap is 64", a.peak)
	}
	if a.offered != a.admitted+a.dropped {
		t.Fatalf("offered %d != admitted %d + dropped %d", a.offered, a.admitted, a.dropped)
	}
	b := digest(RunOpen(syncSys(kernel.Poll), job))
	if a != b {
		t.Fatalf("overload run not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestOpenLoopNoQueueDropsInstantly: a negative QueueCap turns the
// admission queue off entirely; overload shows up purely as drops.
func TestOpenLoopNoQueueDropsInstantly(t *testing.T) {
	res := RunOpen(syncSys(kernel.Interrupt), OpenJob{
		Spec: Spec{
			Pattern:   RandRead,
			BlockSize: 4096,
			Duration:  2 * sim.Millisecond,
			Seed:      4,
		},
		Arrival:  Arrival{Kind: FixedRate, Rate: 1_000_000},
		QueueCap: -1,
	})
	if res.Deferred != 0 || res.PeakQueue != 0 {
		t.Fatalf("queueless job deferred %d (peak %d)", res.Deferred, res.PeakQueue)
	}
	if res.Dropped == 0 {
		t.Fatal("queueless overload dropped nothing")
	}
}

func TestOpenLoopSyncCapClamped(t *testing.T) {
	// MaxInFlight 8 on a sync stack must clamp to 1 rather than panic
	// inside the strictly serial pvsync2 engine.
	res := RunOpen(syncSys(kernel.Interrupt), OpenJob{
		Spec: Spec{
			Pattern:   SeqRead,
			BlockSize: 4096,
			TotalIOs:  50,
			Seed:      2,
		},
		Arrival:     Arrival{Kind: FixedRate, Rate: 20_000},
		MaxInFlight: 8,
	})
	if res.IOs == 0 {
		t.Fatal("no I/Os completed")
	}
}

func TestOpenLoopTotalIOsStop(t *testing.T) {
	res := RunOpen(asyncSys(), OpenJob{
		Spec: Spec{
			Pattern:   RandRead,
			BlockSize: 4096,
			TotalIOs:  123,
			Seed:      8,
		},
		Arrival: Arrival{Kind: Poisson, Rate: 100_000},
	})
	if res.Offered != 123 {
		t.Fatalf("Offered = %d, want 123", res.Offered)
	}
}

func TestRunTenantsIndependentResults(t *testing.T) {
	reader := OpenJob{
		Spec: Spec{
			Name: "reader", Pattern: RandRead, BlockSize: 4096,
			Duration: 10 * sim.Millisecond, Seed: 3,
		},
		Arrival: Arrival{Kind: Poisson, Rate: 30_000},
	}
	writer := OpenJob{
		Spec: Spec{
			Name: "writer", Pattern: SeqWrite, BlockSize: 32 << 10,
			Duration: 10 * sim.Millisecond, Seed: 3,
		},
		Arrival: Arrival{Kind: FixedRate, Rate: 3_000},
	}
	res := RunTenants(asyncSys(), reader, writer)
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Job.Name != "reader" || res[1].Job.Name != "writer" {
		t.Fatal("results not in tenant order")
	}
	if res[0].IOs == 0 || res[1].IOs == 0 {
		t.Fatalf("tenant starved: reader %d, writer %d", res[0].IOs, res[1].IOs)
	}
	if res[0].Write.Count() != 0 {
		t.Fatal("reader recorded writes")
	}
	if res[1].Read.Count() != 0 {
		t.Fatal("writer recorded reads")
	}
	// Same seed, but mixed per tenant: streams must not be correlated
	// (the writer is sequential anyway; check the reader did random I/O
	// by confirming it has spread latencies rather than one value).
	if res[0].All.Min() == res[0].All.Max() && res[0].IOs > 10 {
		t.Fatal("reader latencies suspiciously uniform")
	}
}

// TestRunTenantsInterference is the paper's core multi-tenant claim in
// miniature: a co-running write hog inflates the reader's tail.
func TestRunTenantsInterference(t *testing.T) {
	reader := func() OpenJob {
		return OpenJob{
			Spec: Spec{
				Pattern: RandRead, BlockSize: 4096,
				Duration: 12 * sim.Millisecond, Seed: 6,
			},
			Arrival: Arrival{Kind: Poisson, Rate: 20_000},
		}
	}
	alone := RunOpen(asyncSys(), reader())
	hog := OpenJob{
		Spec: Spec{
			Pattern: SeqWrite, BlockSize: 32 << 10,
			Duration: 12 * sim.Millisecond, Seed: 6,
		},
		Arrival: Arrival{Kind: FixedRate, Rate: 8_000},
	}
	shared := RunTenants(asyncSys(), reader(), hog)
	if shared[0].All.Percentile(99) <= alone.All.Percentile(99) {
		t.Fatalf("reader p99 beside a write hog (%v) not above solo p99 (%v)",
			shared[0].All.Percentile(99), alone.All.Percentile(99))
	}
}

// TestOpenLoopTraceRecords wires a trace recorder through the open-loop
// path: every measured I/O lands in the trace with its arrival-relative
// issue time.
func TestOpenLoopTraceRecords(t *testing.T) {
	rec := trace.NewRecorder()
	res := RunOpen(asyncSys(), OpenJob{
		Spec: Spec{
			Pattern: RandRead, BlockSize: 4096,
			TotalIOs: 100, WarmupIOs: 20,
			Seed:  13,
			Trace: rec,
		},
		Arrival: Arrival{Kind: FixedRate, Rate: 40_000},
	})
	if uint64(rec.Len()) != res.IOs {
		t.Fatalf("trace holds %d events, measured %d", rec.Len(), res.IOs)
	}
	if res.IOs != 80 {
		t.Fatalf("measured %d, want 80 (20 warmup arrivals discarded)", res.IOs)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	for _, c := range stopConditions {
		job := OpenJob{
			Spec:    Spec{Pattern: RandRead, BlockSize: 4096, TotalIOs: c.ios, Duration: c.duration},
			Arrival: Arrival{Kind: Poisson, Rate: 1000},
		}
		if !panicsWithin(10*time.Second, func() { RunOpen(asyncSys(), job) }) {
			t.Errorf("%s: open-loop job without a stop condition did not panic", c.name)
		}
	}
	mustPanic("zero rate", func() {
		RunOpen(asyncSys(), OpenJob{
			Spec:    Spec{Pattern: RandRead, BlockSize: 4096, TotalIOs: 10},
			Arrival: Arrival{Kind: Poisson},
		})
	})
	mustPanic("bursty without On", func() {
		RunOpen(asyncSys(), OpenJob{
			Spec:    Spec{Pattern: RandRead, BlockSize: 4096, TotalIOs: 10},
			Arrival: Arrival{Kind: Bursty, Rate: 1000},
		})
	})
	mustPanic("no tenants", func() { RunTenants(asyncSys()) })
	// Two tenants on the strictly serial sync stack must fail up front
	// with a legible message, not deep inside SyncStack.Submit.
	syncTenant := OpenJob{
		Spec:    Spec{Pattern: RandRead, BlockSize: 4096, TotalIOs: 10},
		Arrival: Arrival{Kind: Poisson, Rate: 1000},
	}
	mustPanic("multi-tenant on sync stack", func() {
		RunTenants(syncSys(kernel.Poll), syncTenant, syncTenant)
	})
}

func TestArrivalKindString(t *testing.T) {
	if FixedRate.String() != "fixed" || Poisson.String() != "poisson" || Bursty.String() != "bursty" {
		t.Fatal("arrival kind names")
	}
}

// --- Result.Wall regression pins (the warmup/wall-clock skew fix) ---

// TestWallWarmupByCountPinned pins the count-based warmup window: on a
// strictly serial sync stack the measured window runs from the first
// measured I/O's issue (== the last warmup completion) to the last
// measured completion — exactly what the recorded trace shows. The old
// formula (lastDone - startT - WarmupTime) subtracted nothing for
// count-based warmup and inflated the window by the whole warmup phase,
// so this test fails against it.
func TestWallWarmupByCountPinned(t *testing.T) {
	rec := trace.NewRecorder()
	res := Run(syncSys(kernel.Interrupt), Job{
		Spec: Spec{
			Pattern: SeqRead, BlockSize: 4096,
			TotalIOs: 100, WarmupIOs: 50,
			Seed:  17,
			Trace: rec,
		},
	})
	if res.IOs != 100 || rec.Len() != 100 {
		t.Fatalf("measured %d I/Os, traced %d", res.IOs, rec.Len())
	}
	events := rec.Events()
	firstIssue := events[0].Issue // == last warmup completion on a serial stack
	var lastDone sim.Time
	for _, e := range events {
		if d := e.Issue + e.Latency; d > lastDone {
			lastDone = d
		}
	}
	want := lastDone - firstIssue
	if res.Wall != want {
		t.Fatalf("Wall = %v, want %v (trace window)", res.Wall, want)
	}
	// And the old formula is measurably wrong: it spans the warmup too.
	if old := lastDone; res.Wall >= old {
		t.Fatalf("Wall %v not below the old uncorrected window %v", res.Wall, old)
	}
}

// TestWallWarmupByTimePinned pins the time-based warmup window: the
// window opens exactly at the warmup-time offset.
func TestWallWarmupByTimePinned(t *testing.T) {
	const warm = 500 * sim.Microsecond
	rec := trace.NewRecorder()
	sys := syncSys(kernel.Interrupt)
	res := Run(sys, Job{
		Spec: Spec{
			Pattern: SeqRead, BlockSize: 4096,
			Duration:   3 * sim.Millisecond,
			WarmupTime: warm,
			Seed:       18,
			Trace:      rec,
		},
	})
	if res.IOs == 0 {
		t.Fatal("nothing measured")
	}
	var lastDone sim.Time
	for _, e := range rec.Events() {
		if d := e.Issue + e.Latency; d > lastDone {
			lastDone = d
		}
	}
	if want := lastDone - warm; res.Wall != want {
		t.Fatalf("Wall = %v, want %v (lastDone %v - warmup %v)", res.Wall, want, lastDone, warm)
	}
}

// TestWallClampedNonNegative: a run shorter than its warmup must report
// a zero window, not a negative one (the old formula went negative).
func TestWallClampedNonNegative(t *testing.T) {
	res := Run(syncSys(kernel.Interrupt), Job{
		Spec: Spec{
			Pattern: SeqRead, BlockSize: 4096,
			Duration:   500 * sim.Microsecond,
			WarmupTime: 50 * sim.Millisecond,
		},
	})
	if res.IOs != 0 {
		t.Fatalf("measured %d I/Os inside the warmup window", res.IOs)
	}
	if res.Wall != 0 {
		t.Fatalf("Wall = %v, want 0 (clamped)", res.Wall)
	}
	if res.IOPS() != 0 || res.BandwidthMBps() != 0 {
		t.Fatal("empty run reported nonzero rates")
	}
}

// TestWallWarmupByCountIOPSRegression pins the skew itself: the same
// 100 measured I/Os must report the same IOPS whether or not 50 warmup
// I/Os preceded them (modulo the device's per-I/O jitter). Under the old
// formula the warmup run's IOPS came out ~33% lower because the window
// wrongly included the warmup phase.
func TestWallWarmupByCountIOPSRegression(t *testing.T) {
	warm := Run(syncSys(kernel.Interrupt), Job{
		Spec: Spec{
			Pattern: SeqRead, BlockSize: 4096, TotalIOs: 100, WarmupIOs: 50, Seed: 19,
		},
	})
	cold := Run(syncSys(kernel.Interrupt), Job{
		Spec: Spec{
			Pattern: SeqRead, BlockSize: 4096, TotalIOs: 100, Seed: 19,
		},
	})
	ratio := warm.IOPS() / cold.IOPS()
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("warmup-by-count IOPS off by %.2fx vs no-warmup baseline (%.0f vs %.0f)",
			ratio, warm.IOPS(), cold.IOPS())
	}
}

// TestOpenLoopCPUBudgetThrottles pins the CPU-budget rationing: a
// tenant offered far more load than its submit cores can clear gets
// throttled to ~Cores/PerOp issues per second, with the stall visible
// in the counters and the latency (measured from arrival).
func TestOpenLoopCPUBudgetThrottles(t *testing.T) {
	job := OpenJob{
		Spec: Spec{
			Pattern: RandRead, BlockSize: 4096,
			Duration: 10 * sim.Millisecond, Seed: 11,
		},
		Arrival: Arrival{Kind: FixedRate, Rate: 200_000},
	}
	free := RunOpen(asyncSys(), job)

	job.CPU = CPUBudget{Cores: 0.5, PerOp: 10 * sim.Microsecond}
	capped := RunOpen(asyncSys(), job)

	if capped.CPUThrottled == 0 || capped.CPUWait == 0 {
		t.Fatal("overloaded budget never throttled")
	}
	if free.CPUThrottled != 0 || free.CPUWait != 0 {
		t.Fatal("unbudgeted run reported CPU stalls")
	}
	// 0.5 cores / 10µs = 50k issues/s against 200k offered: the budget,
	// not the device, must be the bottleneck.
	if got, want := capped.IOPS(), 50_000.0; got > want*1.1 {
		t.Fatalf("budgeted IOPS = %.0f, want <= ~%.0f", got, want)
	}
	if capped.IOPS() >= free.IOPS() {
		t.Fatalf("budget did not reduce throughput: %.0f vs %.0f", capped.IOPS(), free.IOPS())
	}
	if capped.All.Percentile(99) <= free.All.Percentile(99) {
		t.Fatal("CPU stall invisible in arrival-measured p99")
	}
}

// TestOpenLoopCPUBudgetZeroIsIdentity pins byte identity: the zero
// budget takes the historical code path and produces identical results.
func TestOpenLoopCPUBudgetZeroIsIdentity(t *testing.T) {
	job := OpenJob{
		Spec: Spec{
			Pattern: RandRW, BlockSize: 4096, WriteFraction: 0.3,
			Duration: 8 * sim.Millisecond, Seed: 23,
		},
		Arrival: Arrival{Kind: Poisson, Rate: 80_000},
	}
	a := digest(RunOpen(asyncSys(), job))
	job.CPU = CPUBudget{} // explicit zero
	b := digest(RunOpen(asyncSys(), job))
	if a != b {
		t.Fatalf("zero CPU budget changed the run:\n%+v\n%+v", a, b)
	}
}

// TestOpenLoopCPUBudgetDeterministic pins serial determinism with the
// budget's extra scheduling events in play.
func TestOpenLoopCPUBudgetDeterministic(t *testing.T) {
	job := OpenJob{
		Spec: Spec{
			Pattern: RandRead, BlockSize: 4096,
			Duration: 8 * sim.Millisecond, Seed: 31,
		},
		Arrival: Arrival{Kind: Poisson, Rate: 150_000},
		CPU:     CPUBudget{Cores: 1, PerOp: 8 * sim.Microsecond},
	}
	a := digest(RunOpen(asyncSys(), job))
	b := digest(RunOpen(asyncSys(), job))
	if a != b {
		t.Fatalf("budgeted runs diverged:\n%+v\n%+v", a, b)
	}
	if a.ios == 0 {
		t.Fatal("budgeted run measured nothing")
	}
}
