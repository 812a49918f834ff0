package kernel

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// Focused tests on the hybrid-polling internals: the adaptive sleep, its
// warm-up behaviour, and the latency tracker.

func TestLatencyMean(t *testing.T) {
	var m latencyMean
	if m.mean() != 0 {
		t.Fatal("empty mean not zero")
	}
	m.add(10)
	m.add(20)
	m.add(30)
	if m.mean() != 20 {
		t.Fatalf("mean = %v", m.mean())
	}
}

func TestHybridFirstIOPollsLikeClassic(t *testing.T) {
	r := newRig(smallULL())
	s := NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), Hybrid)
	// With no history there is nothing to sleep on.
	done := false
	s.Submit(false, 0, 4096, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("first hybrid I/O incomplete")
	}
	if r.core.Acct(cpu.FnTimer).Calls != 0 {
		t.Fatal("hybrid armed a timer with no latency history")
	}
}

func TestHybridTracksPerSizeClass(t *testing.T) {
	r := newRig(smallULL())
	s := NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), Hybrid)
	runSync(r, s, false, 30)
	if s.hybrid[4096] == nil || s.hybrid[4096].count == 0 {
		t.Fatal("4KB size class untracked")
	}
	if s.hybrid[8192] != nil {
		t.Fatal("phantom size class")
	}
	// A different block size gets its own tracker.
	done := false
	s.Submit(false, 0, 8192, func() { done = true })
	r.eng.Run()
	if !done || s.hybrid[8192] == nil {
		t.Fatal("8KB size class untracked after 8KB I/O")
	}
}

func TestHybridMinSleepGate(t *testing.T) {
	costs := DefaultCosts()
	costs.HybridMinSleep = 1 * sim.Second // sleep can never trigger
	r := newRig(smallULL())
	s := NewSyncStack(r.eng, r.qp, r.proc, costs, Hybrid)
	runSync(r, s, false, 50)
	if r.core.Acct(cpu.FnTimer).Calls != 0 {
		t.Fatal("timer armed below the minimum-sleep gate")
	}
}

func TestHybridSleepReducesPollIterations(t *testing.T) {
	rPoll := newRig(smallULL())
	runSync(rPoll, NewSyncStack(rPoll.eng, rPoll.qp, rPoll.proc, DefaultCosts(), Poll), false, 100)
	rHyb := newRig(smallULL())
	runSync(rHyb, NewSyncStack(rHyb.eng, rHyb.qp, rHyb.proc, DefaultCosts(), Hybrid), false, 100)
	pollIters := rPoll.core.Acct(cpu.FnBlkMQPoll).Time
	hybIters := rHyb.core.Acct(cpu.FnBlkMQPoll).Time
	if hybIters >= pollIters {
		t.Fatalf("hybrid poll busy %v not below classic %v", hybIters, pollIters)
	}
	// And the sleep must cover a substantial part of the wait.
	if hybIters > pollIters/2 {
		t.Fatalf("hybrid only shaved %v of %v poll time", pollIters-hybIters, pollIters)
	}
}

func TestPollStealChargesOther(t *testing.T) {
	// A long device wait under polling must show the stolen deferred
	// work in FnOther.
	slow := smallULL()
	slow.NAND.ReadLatency = 400 * sim.Microsecond
	slow.ReadCachePages = 0
	slow.PrefetchPages = 0
	r := newRig(slow)
	r.dev.Precondition(0.5)
	s := NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), Poll)
	runSync(r, s, false, 5)
	if r.core.Acct(cpu.FnOther).Time == 0 {
		t.Fatal("long poll waits charged no deferred-work steal")
	}
}

func TestInterruptHasNoPollCharges(t *testing.T) {
	r := newRig(smallULL())
	s := NewSyncStack(r.eng, r.qp, r.proc, DefaultCosts(), Interrupt)
	runSync(r, s, true, 20)
	if r.core.Acct(cpu.FnBlkMQPoll).Calls != 0 || r.core.Acct(cpu.FnNVMePoll).Calls != 0 {
		t.Fatal("interrupt mode charged poll functions")
	}
	if r.core.Acct(cpu.FnTimer).Calls != 0 {
		t.Fatal("interrupt mode charged timer functions")
	}
}
