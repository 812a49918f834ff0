package kernel

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/nvme"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Mode selects the I/O completion method of a synchronous stack.
type Mode int

// The three completion methods the paper compares.
const (
	Interrupt Mode = iota
	Poll
	Hybrid
)

func (m Mode) String() string {
	switch m {
	case Interrupt:
		return "interrupt"
	case Poll:
		return "poll"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SyncStack models a preadv2/pwritev2 (pvsync2) synchronous I/O path with
// a configurable completion method. One I/O is outstanding at a time, as
// with the paper's single hipri job pinned to one max-frequency core.
type SyncStack struct {
	eng   *sim.Engine
	qp    *nvme.QueuePair
	proc  *cpu.Proc
	costs Costs
	mode  Mode
	rng   *sim.RNG
	pr    *probe.Probe

	busy    bool
	current *syncIO
	nextCID uint16

	// io is the one reusable I/O context (the stack is strictly serial),
	// and the step funcs below are bound once at construction so the per-IO
	// path schedules no capturing closures.
	io        syncIO
	ringFn    func() // doorbell ring: submit to the queue pair
	detectFn  func() // poll loop observed the CQE
	finishCur func() // interrupt path: finish the current I/O
	settleFn  func() // syscall exit: return control to the app

	hybrid map[int]*latencyMean // block size -> total-latency tracker
}

type syncIO struct {
	write     bool
	flush     bool // device flush barrier instead of a data transfer
	offset    int64
	length    int
	cid       uint16
	done      func()
	span      *probe.Span
	start     sim.Time // Submit call time
	submitEnd sim.Time // doorbell ring time
	wakeAt    sim.Time // hybrid: when the sleep ends; 0 for plain poll
	sleeping  bool
}

// latencyMean tracks the mean device completion interval per size class,
// as the 4.14 hybrid polling implementation does.
type latencyMean struct {
	count uint64
	sum   sim.Time
}

func (m *latencyMean) add(d sim.Time) { m.count++; m.sum += d }
func (m *latencyMean) mean() sim.Time {
	if m.count == 0 {
		return 0
	}
	return m.sum / sim.Time(m.count)
}

// NewSyncStack wires a synchronous stack onto a queue pair, executing
// on the given core handle: submission and completion work claims and
// holds the core, the poll loop spins on it, and interrupt wakeups pay
// the scheduler's migration cost when the core set arbitrates. The
// stack owns the queue pair's completion delivery configuration.
func NewSyncStack(eng *sim.Engine, qp *nvme.QueuePair, proc *cpu.Proc, costs Costs, mode Mode) *SyncStack {
	s := &SyncStack{
		eng:    eng,
		qp:     qp,
		proc:   proc,
		costs:  costs,
		mode:   mode,
		rng:    sim.NewRNG(0x517ac4),
		pr:     probe.Get(eng),
		hybrid: make(map[int]*latencyMean),
	}
	s.ringFn = func() {
		io := s.current
		io.submitEnd = s.eng.Now()
		s.pr.SetSpan(io.span)
		if io.flush {
			s.qp.SubmitFlush(io.cid)
		} else {
			s.qp.Submit(io.write, io.offset, io.length, io.cid)
		}
		if s.mode == Hybrid {
			s.armHybridSleep(io)
		}
	}
	s.detectFn = func() {
		if _, ok := s.qp.Poll(); !ok {
			panic("kernel: CQE vanished before poll detection")
		}
		s.finish(s.current)
	}
	s.finishCur = func() { s.finish(s.current) }
	s.settleFn = s.settle
	if mode == Interrupt {
		qp.EnableInterrupts(true)
		qp.SetMSIHandler(s.onMSI)
	} else {
		qp.EnableInterrupts(false)
		qp.SetCompletionHook(s.onVisible)
	}
	return s
}

// Mode reports the configured completion method.
func (s *SyncStack) Mode() Mode { return s.mode }

// Submit issues one synchronous I/O. done fires when control returns to
// the application. Submitting while an I/O is outstanding panics: the
// pvsync2 engine is strictly serial.
func (s *SyncStack) Submit(write bool, offset int64, length int, done func()) {
	s.begin(write, false, offset, length, done)
}

// Flush issues one synchronous device flush barrier — the durable tail
// of an fsync(2): an empty bio with REQ_PREFLUSH through the same
// syscall/VFS/blk-mq/driver pipeline, completed by the configured
// method. Like Submit, the stack is strictly serial.
func (s *SyncStack) Flush(done func()) {
	s.begin(false, true, 0, 0, done)
}

func (s *SyncStack) begin(write, flush bool, offset int64, length int, done func()) {
	if s.busy {
		panic("kernel: overlapping I/O on a synchronous stack")
	}
	s.busy = true
	sp := s.pr.TakeSpan()

	// Acquire the core: on a contended set the submission queues behind
	// whatever the core is doing (zero delay on the legacy solo core).
	now := s.eng.Now()
	start := s.proc.Claim(now)
	sp.Add(probe.PCoreWait, start-now)

	// Submission pipeline: user setup, syscall entry, VFS, blk-mq, driver.
	submitDelay := s.costs.paySubmit(s.proc, half(s.costs.Syscall))
	s.proc.Hold(start, start+submitDelay)

	io := &s.io
	*io = syncIO{
		write:  write,
		flush:  flush,
		offset: offset,
		length: length,
		cid:    s.nextCID,
		done:   done,
		span:   sp,
		start:  now,
	}
	s.current = io
	s.nextCID++

	s.eng.After(start-now+submitDelay, s.ringFn)
}

// armHybridSleep computes the adaptive sleep. With no history (or a tiny
// mean) hybrid degenerates to classic polling, as in the kernel.
func (s *SyncStack) armHybridSleep(io *syncIO) {
	tr := s.hybrid[io.length]
	if tr == nil {
		return
	}
	sleep := sim.Time(float64(tr.mean()) * s.costs.HybridSleepFactor)
	if sleep < s.costs.HybridMinSleep {
		return
	}
	s.proc.Pay(cpu.FnTimer, s.costs.TimerProgram)
	io.sleeping = true
	io.wakeAt = s.eng.Now() + sleep
}

// onVisible fires the instant the CQE is host-visible (poll and hybrid
// modes) and computes when the polling loop detects it.
func (s *SyncStack) onVisible() {
	io := s.current
	if io == nil {
		panic("kernel: completion with no outstanding I/O")
	}
	tc := s.eng.Now()

	pollStart := io.submitEnd
	wakeCost := sim.Time(0)
	if io.sleeping {
		// The loop cannot start before the timer fires and the task is
		// scheduled back in, even if the device finished earlier — the
		// hybrid oversleep/wake penalty.
		pollStart = io.wakeAt
		wakeCost = s.costs.TimerWake.Time + sim.Time(s.rng.Exp(float64(s.costs.HybridWakeJitter)))
		s.proc.Pay(cpu.FnTimer, s.costs.TimerWake)
	}

	iter := s.costs.PollIter()
	// The loop starts at pollStart (+ wake path, + run-queue wait if the
	// core set is contended) and observes the entry at the first
	// iteration boundary at or after tc, on a grid anchored at the loop
	// start. An entry that completed during sleep or before the loop
	// spun up is found by the first iteration.
	base := s.proc.Claim(pollStart + wakeCost)
	wait := tc - base
	detect := base + nvme.PollBoundary(0, max(wait, 0), iter)
	iters := nvme.PollIters(detect-base, iter)

	// Two tail penalties hit busy pollers but not interrupt waiters.
	// Scheduler ticks during the poll preempt the poller outright.
	core := s.proc.Core()
	ticks := core.TicksIn(base, detect)
	if ticks > 0 {
		penalty := sim.Time(ticks) * core.TickWork
		s.proc.Charge(cpu.FnOther, penalty, 40*uint64(ticks), 20*uint64(ticks))
		detect += penalty
	}
	// And long waits absorb the deferred kernel work an idle core would
	// have soaked up: the Figure 11 inversion for sub-tick tails.
	if wait > s.costs.PollStealThreshold && s.costs.PollStealFrac > 0 {
		steal := sim.Time(float64(wait) * s.costs.PollStealFrac)
		s.proc.Charge(cpu.FnOther, steal, uint64(steal/sim.Microsecond)*12, uint64(steal/sim.Microsecond)*5)
		detect += steal
	}

	s.proc.PayN(cpu.FnBlkMQPoll, s.costs.PollIterBlk, iters)
	s.proc.PayN(cpu.FnNVMePoll, s.costs.PollIterNVMe, iters)

	// The spinning task owns the core for the whole detection window.
	s.proc.Spin(base, detect)

	s.eng.At(detect, s.detectFn)
}

// onMSI is the interrupt-mode completion: ISR, softirq completion,
// context switch, wake latency, syscall exit.
func (s *SyncStack) onMSI() {
	io := s.current
	if io == nil {
		panic("kernel: MSI with no outstanding I/O")
	}
	if _, ok := s.qp.Poll(); !ok {
		panic("kernel: MSI with empty CQ")
	}
	s.proc.Pay(cpu.FnISR, s.costs.ISR)
	s.proc.Pay(cpu.FnCtxSwitch, s.costs.CtxSwitch)
	now := s.eng.Now()
	// Under arbitration the IRQ wakeup pays migration plus any run-queue
	// wait, and the ISR + context-switch work occupies the core.
	delay := s.costs.ISR.Time + s.costs.CtxSwitch.Time + s.costs.WakeLatency
	delay += s.proc.Wake(now)
	s.proc.Hold(now, now+s.costs.ISR.Time+s.costs.CtxSwitch.Time)
	s.eng.After(delay, s.finishCur)
}

// finish returns control to the application.
func (s *SyncStack) finish(io *syncIO) {
	exit := s.costs.Syscall.Time / 2
	if s.mode != Interrupt {
		s.proc.Pay(cpu.FnBlkMQPoll, s.costs.PollComplete)
		exit += s.costs.PollComplete.Time
	}
	s.proc.Pay(cpu.FnSyscall, half(s.costs.Syscall))
	now := s.eng.Now()
	s.proc.Hold(now, now+exit)
	s.eng.After(exit, s.settleFn)
}

// settle is the syscall-exit step: feed the hybrid heuristic and hand
// control back to the application.
func (s *SyncStack) settle() {
	io := s.current
	if s.mode == Hybrid {
		// blk_stat feeds the sleep heuristic with total request
		// latency, detection delay included.
		tr := s.hybrid[io.length]
		if tr == nil {
			tr = &latencyMean{}
			s.hybrid[io.length] = tr
		}
		tr.add(s.eng.Now() - io.start)
	}
	done := io.done
	io.done = nil
	s.busy = false
	s.current = nil
	done()
}

func half(c cpu.Cost) cpu.Cost {
	return cpu.Cost{Time: c.Time / 2, Loads: c.Loads / 2, Stores: c.Stores / 2}
}

// paySubmit charges the submission pipeline — user setup, syscall entry
// (the given share of the syscall cost), VFS, blk-mq, driver — and
// returns its duration. The syscall entry always takes half the
// syscall's time, whatever share of its instructions is billed.
func (c *Costs) paySubmit(p *cpu.Proc, syscall cpu.Cost) sim.Time {
	p.Pay(cpu.FnAppUser, c.AppSetup)
	p.Pay(cpu.FnSyscall, syscall)
	p.Pay(cpu.FnVFS, c.VFS)
	p.Pay(cpu.FnBlkMQSubmit, c.BlkMQ)
	p.Pay(cpu.FnNVMeDriver, c.Driver)
	return c.AppSetup.Time + c.Syscall.Time/2 + c.VFS.Time + c.BlkMQ.Time + c.Driver.Time
}

// AsyncStack models the libaio path: io_submit batching keeps many I/Os
// outstanding, completions arrive by interrupt and are reaped from
// io_getevents. This is the engine behind the paper's queue-depth and
// bandwidth studies (Figures 4-7).
type AsyncStack struct {
	eng   *sim.Engine
	proc  *cpu.Proc
	costs Costs
	pr    *probe.Probe
	led   *nvme.Ledger
}

// NewAsyncStack wires an asynchronous stack onto a queue pair,
// executing on the given core handle: io_submit work queues behind and
// then holds the core, and the io_getevents reap path pays the wakeup
// migration cost when the core set arbitrates.
func NewAsyncStack(eng *sim.Engine, qp *nvme.QueuePair, proc *cpu.Proc, costs Costs) *AsyncStack {
	s := &AsyncStack{
		eng:   eng,
		proc:  proc,
		costs: costs,
		pr:    probe.Get(eng),
		led:   nvme.NewLedger(eng, qp, "kernel"),
	}
	qp.EnableInterrupts(true)
	qp.SetMSIHandler(s.onMSI)
	return s
}

// Submit issues one asynchronous I/O; any number may be outstanding up to
// the queue depth.
func (s *AsyncStack) Submit(write bool, offset int64, length int, done func()) {
	s.begin(write, false, offset, length, done)
}

// Flush issues one asynchronous device flush barrier (the durable tail
// of an fsync: an empty REQ_PREFLUSH bio) alongside any outstanding
// I/Os; completion is reaped like any other command.
func (s *AsyncStack) Flush(done func()) {
	s.begin(false, true, 0, 0, done)
}

func (s *AsyncStack) begin(write, flush bool, offset int64, length int, done func()) {
	sp := s.pr.TakeSpan()
	now := s.eng.Now()
	start := s.proc.Claim(now)
	sp.Add(probe.PCoreWait, start-now)

	submitDelay := s.costs.paySubmit(s.proc, s.costs.Syscall)
	s.proc.Hold(start, start+submitDelay)

	cid := s.led.Track(done)
	s.led.Ring(start+submitDelay, nvme.Cmd{Write: write, Flush: flush, Offset: offset, Length: length, CID: cid, Span: sp})
}

// onMSI reaps every visible completion, charging the ISR path per CQE.
// The submitter observes the completion only after the io_getevents
// reaping path runs: ISR, wakeup context switch, syscall return.
func (s *AsyncStack) onMSI() {
	n := 0
	for s.led.Reap() {
		s.proc.Pay(cpu.FnISR, s.costs.ISR)
		s.proc.Pay(cpu.FnCtxSwitch, s.costs.CtxSwitch)
		n++
	}
	if n == 0 {
		return
	}
	// Every reaped CQE observes the same delay, so the whole batch rides
	// one delivery event. Under arbitration the reaping task additionally
	// pays the wakeup cost and occupies the core for the reap span.
	reap := s.costs.ISR.Time + s.costs.CtxSwitch.Time + s.costs.Syscall.Time/2
	now := s.eng.Now()
	extra := s.proc.Wake(now)
	s.proc.Hold(now+extra, now+extra+reap)
	s.led.Deliver(extra + reap)
}

// Outstanding reports in-flight asynchronous I/Os.
func (s *AsyncStack) Outstanding() int { return s.led.Outstanding() }
