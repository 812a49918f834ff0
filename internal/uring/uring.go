// Package uring models a Linux 5.x io_uring storage path: the submission
// and completion rings the paper's pvsync2/libaio/SPDK trio predates.
// Applications prep SQEs in shared memory (no per-I/O syscall cost
// beyond the prep itself), one io_uring_enter flushes every SQE prepped
// since the last flush (batch amortization), and completions are reaped
// as CQE batches — one ISR + context switch per interrupt rather than
// libaio's per-CQE charge, which is exactly where the IOPS-per-core win
// comes from. Four completion modes span the paper's design space:
// interrupt, IOPOLL busy polling, adaptive hybrid polling (AIMD-tuned
// sleep, unlike the kernel's fixed half-mean scheme), and SQPOLL, which
// pins a dedicated kernel thread to its own core and eliminates even the
// submission syscall.
package uring

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/nvme"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Mode selects the completion method of an io_uring stack.
type Mode int

// The four completion modes.
const (
	Interrupt Mode = iota // MSI + batched CQE reap in io_uring_enter
	Poll                  // IORING_SETUP_IOPOLL: spin in io_iopoll_check
	Hybrid                // adaptive sleep-then-poll (AIMD-tuned delay)
	SQPoll                // IORING_SETUP_SQPOLL: dedicated kernel thread
)

func (m Mode) String() string {
	switch m {
	case Interrupt:
		return "interrupt"
	case Poll:
		return "poll"
	case Hybrid:
		return "hybrid"
	case SQPoll:
		return "sqpoll"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a mode name; ok is false for unknown names.
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "interrupt":
		return Interrupt, true
	case "poll":
		return Poll, true
	case "hybrid":
		return Hybrid, true
	case "sqpoll":
		return SQPoll, true
	default:
		return 0, false
	}
}

// Costs is the calibrated cost table of the io_uring datapath.
type Costs struct {
	// Submission.
	Prep      cpu.Cost // SQE fill-in in the shared ring (user code)
	Enter     cpu.Cost // io_uring_enter syscall shell, once per batch
	SubmitSQE cpu.Cost // per-SQE fetch, io_kiocb setup, blk-mq+NVMe fast path

	// Completion.
	ReapCQE   cpu.Cost // per-CQE posting + app-side completion handling
	ISR       cpu.Cost // MSI handling, once per interrupt (not per CQE)
	CtxSwitch cpu.Cost // sleep/wake pair around the enter wait

	// IOPOLL iteration: the same blk_mq_poll/nvme_poll walk the classic
	// polled path pays, entered from io_iopoll_check.
	PollIterBlk  cpu.Cost
	PollIterNVMe cpu.Cost

	// SQPOLL: one io_sq_thread loop iteration (SQ check + IOPOLL drain),
	// and the app-side lock-free CQ peek that replaces the reap syscall.
	SQPollIter cpu.Cost
	SQPollPeek cpu.Cost

	// Adaptive hybrid polling: the hrtimer costs match the kernel path;
	// the delay itself is tuned by AIMD between the bounds below rather
	// than fixed at half the tracked mean.
	TimerProgram    cpu.Cost
	TimerWake       cpu.Cost
	HybridDelayInit sim.Time
	HybridMinDelay  sim.Time
	HybridMaxDelay  sim.Time
}

// PollIter is the duration of one IOPOLL loop iteration.
func (c *Costs) PollIter() sim.Time {
	return c.PollIterBlk.Time + c.PollIterNVMe.Time
}

// DefaultCosts returns the calibrated io_uring cost table. The ratios
// against the kernel table tell the measured story: prep is cheaper than
// a pvsync2 setup (no engine glue around a syscall), the enter shell is
// amortized over the batch, the per-SQE kernel path skips the VFS
// re-validation the synchronous path pays, and reaping a CQE costs less
// than a libaio event because the ISR/context-switch pair is charged per
// interrupt instead of per completion.
func DefaultCosts() Costs {
	return Costs{
		Prep:      cpu.Cost{Time: 350 * sim.Nanosecond, Loads: 100, Stores: 70},
		Enter:     cpu.Cost{Time: 250 * sim.Nanosecond, Loads: 80, Stores: 50},
		SubmitSQE: cpu.Cost{Time: 550 * sim.Nanosecond, Loads: 160, Stores: 120},

		ReapCQE:   cpu.Cost{Time: 300 * sim.Nanosecond, Loads: 70, Stores: 45},
		ISR:       cpu.Cost{Time: 400 * sim.Nanosecond, Loads: 120, Stores: 60},
		CtxSwitch: cpu.Cost{Time: 500 * sim.Nanosecond, Loads: 90, Stores: 80},

		PollIterBlk:  cpu.Cost{Time: 80 * sim.Nanosecond, Loads: 11, Stores: 4},
		PollIterNVMe: cpu.Cost{Time: 20 * sim.Nanosecond, Loads: 5, Stores: 1},

		SQPollIter: cpu.Cost{Time: 180 * sim.Nanosecond, Loads: 30, Stores: 6},
		SQPollPeek: cpu.Cost{Time: 150 * sim.Nanosecond, Loads: 40, Stores: 10},

		TimerProgram:    cpu.Cost{Time: 150 * sim.Nanosecond, Loads: 40, Stores: 30},
		TimerWake:       cpu.Cost{Time: 650 * sim.Nanosecond, Loads: 110, Stores: 70},
		HybridDelayInit: 5 * sim.Microsecond,
		HybridMinDelay:  1 * sim.Microsecond,
		HybridMaxDelay:  50 * sim.Microsecond,
	}
}

// Config selects an io_uring stack variant.
type Config struct {
	Mode  Mode
	Costs *Costs // nil = DefaultCosts
}

// sqDepth is the SQ ring's entry count; a full ring forces an early
// flush.
const sqDepth = 256

// Stack is one io_uring instance on a queue pair. Any number of I/Os may
// be outstanding up to the device queue depth.
type Stack struct {
	eng    *sim.Engine
	proc   *cpu.Proc // submitter (application) core
	sqProc *cpu.Proc // SQPOLL thread core; == proc outside SQPOLL
	costs  Costs
	mode   Mode
	pr     *probe.Probe
	sqTrk  string // SQPOLL background trace track
	led    *nvme.Ledger

	// sq is the batch of SQEs prepped since the last ring flush; the
	// flush event is armed by the first prep of a batch.
	sq         []nvme.Cmd
	flushArmed bool
	flushFn    func()
	drainFn    func() // bound once: batch-reap visible CQEs

	// Poll/hybrid state.
	pollSince sim.Time // spin window start; 0 = not spinning
	drainAt   sim.Time // scheduled drain boundary, 0 if none
	firstSeen sim.Time // hybrid: first CQE visibility in this wait
	wakeAt    sim.Time // hybrid: armed wakeup; 0 = no sleep armed
	delay     sim.Time // hybrid: current adaptive sleep

	started    bool
	firstStart sim.Time
	finalized  bool
}

// New wires an io_uring stack onto a queue pair, executing on the given
// core handle. sqProc, when non-nil, is the dedicated core of the
// SQPOLL kernel thread (pinned, like an SPDK reactor); nil runs the
// thread on the submitter's core, where on a one-core set the over-
// subscription shows up in Utilization.Oversub rather than on a second
// core.
func New(eng *sim.Engine, qp *nvme.QueuePair, proc *cpu.Proc, sqProc *cpu.Proc, cfg Config) *Stack {
	costs := DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	if sqProc == nil || cfg.Mode != SQPoll {
		sqProc = proc
	}
	s := &Stack{
		eng:    eng,
		proc:   proc,
		sqProc: sqProc,
		costs:  costs,
		mode:   cfg.Mode,
		pr:     probe.Get(eng),
		led:    nvme.NewLedger(eng, qp, "uring"),
		delay:  costs.HybridDelayInit,
	}
	if s.pr != nil && cfg.Mode == SQPoll {
		s.sqTrk = s.pr.Name("uring") + "/sqpoll"
	}
	if cfg.Mode == SQPoll && sqProc != proc && sqProc.Set().Arbitrating() {
		sqProc.Pin()
	}
	s.flushFn = s.flush
	s.drainFn = s.drain
	if cfg.Mode == Interrupt {
		qp.EnableInterrupts(true)
		qp.SetMSIHandler(s.onMSI)
	} else {
		qp.EnableInterrupts(false)
		qp.SetCompletionHook(s.onVisible)
	}
	return s
}

// Mode reports the configured completion mode.
func (s *Stack) Mode() Mode { return s.mode }

// Submit preps one I/O SQE; the ring flush armed by the first prep of a
// batch submits every SQE prepped before it fires.
//
//ullvet:noalloc bench=BenchmarkUringSubmit
func (s *Stack) Submit(write bool, offset int64, length int, done func()) {
	s.begin(write, false, offset, length, done)
}

// Flush preps one fsync-barrier SQE (IORING_OP_FSYNC lowered to an NVMe
// Flush) through the same ring path as data I/O.
func (s *Stack) Flush(done func()) {
	s.begin(false, true, 0, 0, done)
}

func (s *Stack) begin(write, flush bool, offset int64, length int, done func()) {
	if !s.started {
		s.started = true
		s.firstStart = s.eng.Now()
	}
	s.proc.Pay(cpu.FnAppUser, s.costs.Prep)

	cid := s.led.Track(done)
	s.sq = append(s.sq, nvme.Cmd{Write: write, Flush: flush, Offset: offset, Length: length, CID: cid, Span: s.pr.TakeSpan()})

	if len(s.sq) >= sqDepth {
		// SQ ring full: forced flush, no batching benefit left to wait for.
		s.flush()
		return
	}
	if !s.flushArmed {
		s.flushArmed = true
		s.eng.After(s.costs.Prep.Time, s.flushFn)
	}
}

// flush submits every prepped SQE. Outside SQPOLL this is io_uring_enter:
// one syscall shell for the whole batch plus per-SQE kernel submission
// work on the caller's core. Under SQPOLL there is no syscall at all —
// the kernel thread picks the SQEs up at its next loop iteration and
// pays the submission work on its own core.
func (s *Stack) flush() {
	s.flushArmed = false
	n := len(s.sq)
	if n == 0 {
		return
	}
	now := s.eng.Now()
	wasIdle := s.led.Outstanding() == n

	var doorbell sim.Time // time of the first doorbell
	if s.mode == SQPoll {
		// Next io_sq_thread iteration boundary, strictly after now.
		pick := nvme.PollBoundary(now, now, s.costs.SQPollIter.Time)
		for i := range s.sq {
			s.sqProc.Pay(cpu.FnUringSubmit, s.costs.SubmitSQE)
			s.led.Ring(pick+sim.Time(i+1)*s.costs.SubmitSQE.Time, s.sq[i])
		}
		doorbell = pick + s.costs.SubmitSQE.Time
	} else {
		start := s.proc.Claim(now)
		s.proc.Pay(cpu.FnSyscall, s.costs.Enter)
		for i := range s.sq {
			s.proc.Pay(cpu.FnUringSubmit, s.costs.SubmitSQE)
			s.led.Ring(start+s.costs.Enter.Time+sim.Time(i+1)*s.costs.SubmitSQE.Time, s.sq[i])
		}
		end := start + s.costs.Enter.Time + sim.Time(n)*s.costs.SubmitSQE.Time
		s.proc.Hold(start, end)
		doorbell = start + s.costs.Enter.Time + s.costs.SubmitSQE.Time
	}
	clear(s.sq) // the doorbells own the spans now
	s.sq = s.sq[:0]

	switch s.mode {
	case Poll, SQPoll:
		if s.pollSince == 0 {
			s.pollSince = doorbell
		}
	case Hybrid:
		if wasIdle {
			// Arm the adaptive sleep; the poll loop starts at the wakeup.
			s.proc.Pay(cpu.FnTimer, s.costs.TimerProgram)
			s.wakeAt = doorbell + s.delay
			s.firstSeen = 0
			s.pollSince = 0
		}
	}
}

// onMSI is the interrupt-mode completion: ONE ISR + context switch per
// interrupt reaps every visible CQE — the batching libaio's per-CQE
// charge lacks.
func (s *Stack) onMSI() {
	n := 0
	for s.led.Reap() {
		s.proc.Pay(cpu.FnUringReap, s.costs.ReapCQE)
		n++
	}
	if n == 0 {
		return
	}
	s.proc.Pay(cpu.FnISR, s.costs.ISR)
	s.proc.Pay(cpu.FnCtxSwitch, s.costs.CtxSwitch)
	reap := s.costs.ISR.Time + s.costs.CtxSwitch.Time + sim.Time(n)*s.costs.ReapCQE.Time
	now := s.eng.Now()
	extra := s.proc.Wake(now)
	s.proc.Hold(now+extra, now+extra+reap)
	s.led.Deliver(extra + reap)
}

// onVisible quantizes detection to the poll-loop grid (IOPOLL iteration
// outside SQPOLL, io_sq_thread iteration under it); hybrid additionally
// cannot observe anything before its armed wakeup.
func (s *Stack) onVisible() {
	now := s.eng.Now()
	if s.firstSeen == 0 {
		s.firstSeen = now
	}
	iter := s.costs.PollIter()
	if s.mode == SQPoll {
		iter = s.costs.SQPollIter.Time
	}
	at := now
	if s.mode == Hybrid && s.wakeAt > at {
		at = s.wakeAt
	}
	boundary := nvme.PollBoundary(now, at, iter)
	if s.drainAt != 0 && s.drainAt >= boundary {
		return // a drain is already scheduled at or after this boundary
	}
	s.drainAt = boundary
	s.eng.At(boundary, s.drainFn)
}

// drain batch-reaps every CQE visible at the poll boundary and charges
// the spin that got the loop there.
func (s *Stack) drain() {
	boundary := s.drainAt
	s.drainAt = 0
	reapProc := s.proc
	if s.mode == SQPoll {
		reapProc = s.sqProc
	}

	if s.mode == Hybrid && s.wakeAt != 0 {
		s.proc.Pay(cpu.FnTimer, s.costs.TimerWake)
		// AIMD retune: a CQE that arrived mid-sleep means the delay
		// overshot (multiplicative decrease); otherwise the spin between
		// wakeup and detection was pure burn (additive increase).
		if s.firstSeen != 0 && s.firstSeen < s.wakeAt {
			s.delay = s.delay * 3 / 4
			if s.delay < s.costs.HybridMinDelay {
				s.delay = s.costs.HybridMinDelay
			}
		} else {
			s.delay += (boundary - s.wakeAt) / 2
			if s.delay > s.costs.HybridMaxDelay {
				s.delay = s.costs.HybridMaxDelay
			}
		}
		s.pollSince = s.wakeAt
		s.wakeAt = 0
	}

	n := 0
	for s.led.Reap() {
		reapProc.Pay(cpu.FnUringReap, s.costs.ReapCQE)
		n++
	}

	// Spin accounting for the window that ended at this boundary. SQPOLL's
	// continuous loop is charged in Finalize instead; here only the
	// submitter-side modes burn their own core.
	if s.mode != SQPoll && s.pollSince != 0 && boundary > s.pollSince {
		if iters := nvme.PollIters(boundary-s.pollSince, s.costs.PollIter()); iters > 0 {
			s.proc.PayN(cpu.FnBlkMQPoll, s.costs.PollIterBlk, iters)
			s.proc.PayN(cpu.FnNVMePoll, s.costs.PollIterNVMe, iters)
		}
		s.proc.Spin(s.pollSince, boundary)
	}
	if s.led.Outstanding() > 0 {
		s.pollSince = boundary
	} else {
		s.pollSince = 0
		s.firstSeen = 0
	}

	if n == 0 {
		return
	}
	delay := s.costs.ReapCQE.Time
	if s.mode == SQPoll {
		// The app discovers the CQEs with a lock-free ring peek, no
		// syscall; the peek runs on the submitter's core.
		s.proc.Pay(cpu.FnAppUser, s.costs.SQPollPeek)
		delay += s.costs.SQPollPeek.Time
	}
	s.led.Deliver(delay)
}

// Outstanding reports in-flight I/Os.
func (s *Stack) Outstanding() int { return s.led.Outstanding() }

// Delay reports the hybrid mode's current adaptive sleep delay.
func (s *Stack) Delay() sim.Time { return s.delay }

// Finalize charges the SQPOLL thread's continuous loop spin for the
// whole active span [first submit, end]: io_sq_thread never sleeps while
// the ring is live, exactly like an SPDK reactor. Call once, at the end
// of a run; a no-op outside SQPOLL mode, and a free (zero-cost) loop
// charges nothing.
func (s *Stack) Finalize(end sim.Time) {
	if s.mode != SQPoll || s.finalized || !s.started || end <= s.firstStart {
		return
	}
	s.finalized = true
	s.pr.Emit(s.sqTrk, "sqpoll", s.firstStart, end-s.firstStart)
	span := end - s.firstStart
	// Subtract the work already charged explicitly to the thread so its
	// core sums to ~100%, not above.
	core := s.sqProc.Core()
	span -= core.Acct(cpu.FnUringSubmit).Time
	span -= core.Acct(cpu.FnUringReap).Time
	span -= core.Acct(cpu.FnSQPoll).Time
	if span <= 0 {
		return
	}
	iters := nvme.PollIters(span, s.costs.SQPollIter.Time)
	if iters <= 0 {
		return
	}
	s.sqProc.PayN(cpu.FnSQPoll, s.costs.SQPollIter, iters)
}
