package kernel

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// rig bundles a freshly wired host+device for stack tests.
type rig struct {
	eng  *sim.Engine
	dev  *ssd.Device
	qp   *nvme.QueuePair
	core *cpu.Core
	proc *cpu.Proc // solo (non-arbitrating) handle on core
}

func newRig(devCfg ssd.Config) *rig {
	eng := sim.NewEngine()
	dev := ssd.NewDevice(devCfg, eng)
	qp := nvme.New(eng, dev, nvme.DefaultConfig())
	core := cpu.NewCore()
	return &rig{eng: eng, dev: dev, qp: qp, core: core, proc: cpu.SoloProc(core)}
}

func smallULL() ssd.Config {
	cfg := ssd.ZSSD()
	cfg.Channels = 4
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.PagesPerBlock = 16
	cfg.BlocksPerUnit = 16
	cfg.FirmwareJitter = 0 // deterministic latency for exact comparisons
	cfg.NAND.ReadJitter = 0
	cfg.NAND.ProgramJitter = 0
	cfg.NAND.ReadRetryProb = 0
	return cfg
}

// runSync performs n serial I/Os and returns the mean latency.
func runSync(r *rig, s *SyncStack, write bool, n int) sim.Time {
	var total sim.Time
	done := 0
	var issue func()
	issue = func() {
		start := r.eng.Now()
		s.Submit(write, int64(done%64)*4096, 4096, func() {
			total += r.eng.Now() - start
			done++
			if done < n {
				issue()
			}
		})
	}
	issue()
	r.eng.Run()
	if done != n {
		panic("runSync: incomplete")
	}
	return total / sim.Time(n)
}

func TestSyncInterruptCompletes(t *testing.T) {
	r := newRig(smallULL())
	s := NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), Interrupt)
	lat := runSync(r, s, false, 10)
	if lat <= 0 {
		t.Fatal("no latency measured")
	}
	// QD1 4KB ULL read with interrupts: low tens of microseconds.
	if lat < 5*sim.Microsecond || lat > 60*sim.Microsecond {
		t.Fatalf("interrupt read latency %v outside sanity window", lat)
	}
	if r.core.Acct(cpu.FnISR).Calls != 10 {
		t.Fatalf("ISR calls = %d, want 10", r.core.Acct(cpu.FnISR).Calls)
	}
}

func TestSyncPollFasterThanInterrupt(t *testing.T) {
	rInt := newRig(smallULL())
	latInt := runSync(rInt, NewSyncStack(rInt.eng, rInt.qp, rInt.proc, DefaultCosts(), Interrupt), false, 50)

	rPoll := newRig(smallULL())
	latPoll := runSync(rPoll, NewSyncStack(rPoll.eng, rPoll.qp, rPoll.proc, DefaultCosts(), Poll), false, 50)

	if latPoll >= latInt {
		t.Fatalf("poll %v not faster than interrupt %v", latPoll, latInt)
	}
	// The paper's gap on ULL is roughly 2us (11.8 -> 9.6).
	gap := latInt - latPoll
	if gap < 500*sim.Nanosecond || gap > 5*sim.Microsecond {
		t.Fatalf("poll gap %v outside plausible window", gap)
	}
}

func TestSyncPollChargesPollFunctions(t *testing.T) {
	r := newRig(smallULL())
	s := NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), Poll)
	runSync(r, s, false, 10)
	blk := r.core.Acct(cpu.FnBlkMQPoll)
	nv := r.core.Acct(cpu.FnNVMePoll)
	if blk.Time == 0 || nv.Time == 0 {
		t.Fatal("poll functions uncharged")
	}
	if blk.Time <= nv.Time {
		t.Fatalf("blk_mq_poll (%v) must dominate nvme_poll (%v)", blk.Time, nv.Time)
	}
	if r.core.Acct(cpu.FnISR).Calls != 0 {
		t.Fatal("poll mode charged ISR")
	}
}

func TestSyncPollCPUBound(t *testing.T) {
	r := newRig(smallULL())
	s := NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), Poll)
	runSync(r, s, false, 100)
	u := r.core.Utilization(r.eng.Now())
	if u.Kernel < 60 {
		t.Fatalf("poll kernel utilization %.1f%%, want dominated by kernel", u.Kernel)
	}
	if u.Kernel < u.User {
		t.Fatal("poll mode must be kernel-dominated")
	}
}

func TestSyncInterruptMostlyIdle(t *testing.T) {
	r := newRig(smallULL())
	s := NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), Interrupt)
	runSync(r, s, false, 100)
	u := r.core.Utilization(r.eng.Now())
	if u.Idle < 50 {
		t.Fatalf("interrupt idle %.1f%%, want majority idle", u.Idle)
	}
}

func TestSyncPollMoreMemoryInstructions(t *testing.T) {
	rInt := newRig(smallULL())
	runSync(rInt, NewSyncStack(rInt.eng, rInt.qp, rInt.proc, DefaultCosts(), Interrupt), false, 50)
	rPoll := newRig(smallULL())
	runSync(rPoll, NewSyncStack(rPoll.eng, rPoll.qp, rPoll.proc, DefaultCosts(), Poll), false, 50)
	if rPoll.core.Loads() <= rInt.core.Loads() {
		t.Fatal("polling must issue more loads than interrupts")
	}
	if rPoll.core.Stores() <= rInt.core.Stores() {
		t.Fatal("polling must issue more stores than interrupts")
	}
}

func TestHybridSleepsAfterWarmup(t *testing.T) {
	r := newRig(smallULL())
	s := NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), Hybrid)
	runSync(r, s, false, 100)
	if r.core.Acct(cpu.FnTimer).Calls == 0 {
		t.Fatal("hybrid never armed its timer")
	}
}

func TestHybridBetweenInterruptAndPoll(t *testing.T) {
	const n = 200
	latencies := map[Mode]sim.Time{}
	cores := map[Mode]*cpu.Core{}
	walls := map[Mode]sim.Time{}
	for _, m := range []Mode{Interrupt, Poll, Hybrid} {
		r := newRig(smallULL())
		latencies[m] = runSync(r, NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), m), false, n)
		cores[m] = r.core
		walls[m] = r.eng.Now()
	}
	if latencies[Poll] >= latencies[Interrupt] {
		t.Fatalf("poll %v >= interrupt %v", latencies[Poll], latencies[Interrupt])
	}
	// Hybrid must not beat pure polling by more than measurement noise
	// (oversleep makes it equal at best, slower in general).
	if latencies[Hybrid] < latencies[Poll]-100*sim.Nanosecond {
		t.Fatalf("hybrid %v beat pure poll %v", latencies[Hybrid], latencies[Poll])
	}
	// Hybrid must burn less CPU than classic poll.
	pollBusy := cores[Poll].BusyTime().Seconds() / walls[Poll].Seconds()
	hybridBusy := cores[Hybrid].BusyTime().Seconds() / walls[Hybrid].Seconds()
	if hybridBusy >= pollBusy {
		t.Fatalf("hybrid busy fraction %.2f not below poll %.2f", hybridBusy, pollBusy)
	}
}

func TestSyncSerialEnforced(t *testing.T) {
	r := newRig(smallULL())
	s := NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), Interrupt)
	s.Submit(false, 0, 4096, func() {})
	defer func() {
		if recover() == nil {
			t.Error("overlapping sync submit did not panic")
		}
	}()
	s.Submit(false, 4096, 4096, func() {})
}

func TestPollTickPenaltyOnLongOps(t *testing.T) {
	// A device op spanning several scheduler ticks must complete later
	// under polling than under interrupts (Figure 11's inversion).
	slow := smallULL()
	slow.NAND.ReadLatency = 3500 * sim.Microsecond // longer than 3 ticks
	slow.ReadCachePages = 0
	slow.PrefetchPages = 0

	prep := func() *rig {
		r := newRig(slow)
		r.dev.Precondition(0.5)
		return r
	}
	rInt := prep()
	latInt := runSync(rInt, NewSyncStack(rInt.eng, rInt.qp, rInt.proc, DefaultCosts(), Interrupt), false, 5)
	rPoll := prep()
	latPoll := runSync(rPoll, NewSyncStack(rPoll.eng, rPoll.qp, rPoll.proc, DefaultCosts(), Poll), false, 5)
	if latPoll <= latInt {
		t.Fatalf("long-op poll latency %v not above interrupt %v", latPoll, latInt)
	}
	// Three ticks' preemption at 25us each should be visible.
	if latPoll-latInt < 40*sim.Microsecond {
		t.Fatalf("tick penalty only %v", latPoll-latInt)
	}
}

func TestAsyncStackOverlaps(t *testing.T) {
	r := newRig(smallULL())
	s := NewAsyncStack(r.eng, r.qp, r.proc, DefaultCosts())
	const qd = 8
	const total = 200
	issued, completed := 0, 0
	var issue func()
	issue = func() {
		for issued < total && s.Outstanding() < qd {
			off := int64(issued%128) * 4096
			issued++
			s.Submit(false, off, 4096, func() {
				completed++
				issue()
			})
		}
	}
	issue()
	r.eng.Run()
	if completed != total {
		t.Fatalf("completed %d/%d", completed, total)
	}
	wall := r.eng.Now()
	// With QD8 the run must be much faster than 200 serial I/Os.
	rSerial := newRig(smallULL())
	sSerial := NewAsyncStack(rSerial.eng, rSerial.qp, rSerial.proc, DefaultCosts())
	done := 0
	var serial func()
	serial = func() {
		off := int64(done%128) * 4096
		sSerial.Submit(false, off, 4096, func() {
			done++
			if done < total {
				serial()
			}
		})
	}
	serial()
	rSerial.eng.Run()
	if wall >= rSerial.eng.Now() {
		t.Fatalf("QD8 wall %v not faster than QD1 wall %v", wall, rSerial.eng.Now())
	}
}

func TestAsyncUnknownCIDGuard(t *testing.T) {
	r := newRig(smallULL())
	s := NewAsyncStack(r.eng, r.qp, r.proc, DefaultCosts())
	s.Submit(true, 0, 4096, func() {})
	r.eng.Run()
	if s.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after drain", s.Outstanding())
	}
}

func TestModeString(t *testing.T) {
	if Interrupt.String() != "interrupt" || Poll.String() != "poll" || Hybrid.String() != "hybrid" {
		t.Fatal("mode names wrong")
	}
}

func TestDefaultCostsSane(t *testing.T) {
	c := DefaultCosts()
	if c.PollIter() <= 0 {
		t.Fatal("poll iteration must take time")
	}
	if c.HybridSleepFactor <= 0 || c.HybridSleepFactor >= 1 {
		t.Fatal("hybrid sleep factor must be a proper fraction")
	}
	if c.ISR.Time+c.CtxSwitch.Time+c.WakeLatency <= c.PollIter() {
		t.Fatal("interrupt completion overhead must exceed one poll iteration")
	}
}
