package uring

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

func newRig() *rig {
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
	eng := sim.NewEngine()
	dev := ssd.NewDevice(cfg, eng)
	qp := nvme.New(eng, dev, nvme.DefaultConfig())
	core := cpu.NewCore()
	return &rig{eng: eng, dev: dev, qp: qp, core: core, proc: cpu.SoloProc(core)}
}

// runBatches drives the stack with batches I/O waves of the given width,
// returning total completions.
func runBatches(r *rig, s *Stack, batches, width int) int {
	done := 0
	var wave func(int)
	wave = func(b int) {
		if b == batches {
			return
		}
		left := width
		for i := 0; i < width; i++ {
			s.Submit(false, int64(b*width+i)*4096, 4096, func() {
				done++
				left--
				if left == 0 {
					wave(b + 1)
				}
			})
		}
	}
	wave(0)
	r.eng.Run()
	return done
}

func TestModeStringsRoundTrip(t *testing.T) {
	for _, m := range []Mode{Interrupt, Poll, Hybrid, SQPoll} {
		got, ok := ParseMode(m.String())
		if !ok || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, ok)
		}
	}
	if _, ok := ParseMode("bogus"); ok {
		t.Fatal("ParseMode accepted bogus")
	}
}

func TestInterruptCompletesAll(t *testing.T) {
	r := newRig()
	s := New(r.eng, r.qp, r.proc, nil, Config{Mode: Interrupt})
	if got := runBatches(r, s, 8, 4); got != 32 {
		t.Fatalf("completed %d of 32", got)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("%d I/Os leaked", s.Outstanding())
	}
}

// TestBatchSharesOneEnter pins the amortization: every SQE prepped
// before the ring flush fires rides one io_uring_enter.
func TestBatchSharesOneEnter(t *testing.T) {
	r := newRig()
	s := New(r.eng, r.qp, r.proc, nil, Config{Mode: Interrupt})
	runBatches(r, s, 1, 8)
	if calls := r.core.Acct(cpu.FnSyscall).Calls; calls != 1 {
		t.Fatalf("8 same-instant SQEs took %d enters, want 1", calls)
	}
	if calls := r.core.Acct(cpu.FnUringSubmit).Calls; calls != 8 {
		t.Fatalf("per-SQE submit charged %d times, want 8", calls)
	}
}

// TestInterruptBatchesISR pins the reap batching: every CQE visible when
// an MSI lands is reaped under that one ISR + context-switch charge, so
// with interrupt delivery slower than the completion spacing the ISR
// count drops below the CQE count (libaio charges per CQE regardless).
func TestInterruptBatchesISR(t *testing.T) {
	cfg := ssd.ZSSD()
	cfg.Channels = 4
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.PagesPerBlock = 16
	cfg.BlocksPerUnit = 16
	cfg.FirmwareJitter = 0
	cfg.NAND.ReadJitter = 0
	cfg.NAND.ProgramJitter = 0
	cfg.NAND.ReadRetryProb = 0
	eng := sim.NewEngine()
	dev := ssd.NewDevice(cfg, eng)
	ncfg := nvme.DefaultConfig()
	ncfg.InterruptLatency = 5 * sim.Microsecond // coalescing window
	qp := nvme.New(eng, dev, ncfg)
	core := cpu.NewCore()
	r := &rig{eng: eng, dev: dev, qp: qp, core: core, proc: cpu.SoloProc(core)}
	s := New(r.eng, r.qp, r.proc, nil, Config{Mode: Interrupt})
	runBatches(r, s, 2, 16)
	isr := r.core.Acct(cpu.FnISR).Calls
	reaps := r.core.Acct(cpu.FnUringReap).Calls
	if reaps != 32 {
		t.Fatalf("reaped %d CQEs, want 32", reaps)
	}
	if isr >= reaps {
		t.Fatalf("ISR charged %d times for %d CQEs — no batching", isr, reaps)
	}
}

func TestPollSpinsNoInterrupts(t *testing.T) {
	r := newRig()
	s := New(r.eng, r.qp, r.proc, nil, Config{Mode: Poll})
	if got := runBatches(r, s, 4, 4); got != 16 {
		t.Fatalf("completed %d of 16", got)
	}
	if r.core.Acct(cpu.FnISR).Calls != 0 {
		t.Fatal("IOPOLL mode took interrupts")
	}
	if r.core.Acct(cpu.FnBlkMQPoll).Time == 0 || r.core.Acct(cpu.FnNVMePoll).Time == 0 {
		t.Fatal("IOPOLL spin charged no poll-iteration time")
	}
}

// TestHybridAdaptsDelay drives enough I/Os for AIMD to move the sleep
// delay off its initial value while keeping it inside the bounds.
func TestHybridAdaptsDelay(t *testing.T) {
	r := newRig()
	s := New(r.eng, r.qp, r.proc, nil, Config{Mode: Hybrid})
	init := s.Delay()
	if got := runBatches(r, s, 64, 1); got != 64 {
		t.Fatalf("completed %d of 64", got)
	}
	if s.Delay() == init {
		t.Fatalf("adaptive delay never moved from %v", init)
	}
	c := DefaultCosts()
	if s.Delay() < c.HybridMinDelay || s.Delay() > c.HybridMaxDelay {
		t.Fatalf("delay %v escaped [%v, %v]", s.Delay(), c.HybridMinDelay, c.HybridMaxDelay)
	}
	if r.core.Acct(cpu.FnTimer).Calls == 0 {
		t.Fatal("hybrid mode never touched the hrtimer")
	}
}

// TestSQPollChargesDedicatedThread verifies the SQPOLL loop's continuous
// spin lands on the thread's core at Finalize and submission takes no
// syscall at all.
func TestSQPollChargesDedicatedThread(t *testing.T) {
	cs := cpu.NewCoreSet(2)
	r := newRig()
	s := New(r.eng, r.qp, cs.Proc(0), cs.Proc(1), Config{Mode: SQPoll})
	if got := runBatches(r, s, 8, 4); got != 32 {
		t.Fatalf("completed %d of 32", got)
	}
	s.Finalize(r.eng.Now())
	if !cs.Pinned(1) {
		t.Fatal("SQPOLL thread core not pinned")
	}
	app, sq := cs.Core(0), cs.Core(1)
	if app.Acct(cpu.FnSyscall).Calls != 0 {
		t.Fatal("SQPOLL submission paid a syscall")
	}
	if sq.Acct(cpu.FnUringSubmit).Calls != 32 {
		t.Fatalf("SQ thread submitted %d SQEs, want 32", sq.Acct(cpu.FnUringSubmit).Calls)
	}
	if sq.Acct(cpu.FnSQPoll).Time == 0 {
		t.Fatal("Finalize charged no io_sq_thread spin")
	}
	if app.Acct(cpu.FnSQPoll).Time != 0 {
		t.Fatal("io_sq_thread spin leaked onto the app core")
	}
}

// TestSQPollSoloOversubscribes runs SQPOLL on the legacy single
// accounting core: the thread's spin stacks on top of the app work and
// shows up as Oversub > 1 instead of vanishing into a clamp.
func TestSQPollSoloOversubscribes(t *testing.T) {
	r := newRig()
	s := New(r.eng, r.qp, r.proc, nil, Config{Mode: SQPoll})
	runBatches(r, s, 8, 4)
	end := r.eng.Now()
	s.Finalize(end)
	u := r.core.Utilization(end)
	if u.Oversub <= 1.0 {
		t.Fatalf("solo SQPOLL Oversub = %v, want > 1", u.Oversub)
	}
}

func TestFlushBarrier(t *testing.T) {
	r := newRig()
	s := New(r.eng, r.qp, r.proc, nil, Config{Mode: Interrupt})
	fired := false
	s.Submit(true, 0, 4096, func() {})
	s.Flush(func() { fired = true })
	r.eng.Run()
	if !fired {
		t.Fatal("fsync SQE never completed")
	}
}

func TestDeterministic(t *testing.T) {
	for _, mode := range []Mode{Interrupt, Poll, Hybrid, SQPoll} {
		run := func() sim.Time {
			r := newRig()
			s := New(r.eng, r.qp, r.proc, nil, Config{Mode: mode})
			runBatches(r, s, 8, 4)
			return r.eng.Now()
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%v: two identical runs ended at %v and %v", mode, a, b)
		}
	}
}
