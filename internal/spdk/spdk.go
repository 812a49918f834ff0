// Package spdk models the Intel SPDK 19.07 kernel-bypass stack of the
// paper: the NVMe driver lives in userspace (uio/vfio), PCIe BARs are
// mapped into DPDK huge pages, submission costs no syscalls, and — since
// userland cannot take ISRs — completion is always by polling. The poll
// loop's instruction profile follows the functions the paper measures:
// spdk_nvme_qpair_process_completions, nvme_pcie_qpair_process_completions
// and the inlined nvme_qpair_check_enabled.
package spdk

import (
	"repro/internal/cpu"
	"repro/internal/nvme"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Costs is the calibrated cost table of the SPDK datapath.
type Costs struct {
	AppSetup cpu.Cost // benchmark user code (fio_plugin engine)
	Submit   cpu.Cost // SQE build in the huge page + doorbell MMIO
	// Per poll-loop iteration. SPDK walks the whole qpair state without
	// blk-mq's cookie filtering, touching far more memory per iteration
	// than nvme_poll (Figures 21/22).
	IterProcess cpu.Cost // spdk_nvme_qpair_process_completions
	IterPCIe    cpu.Cost // nvme_pcie_qpair_process_completions
	IterCheck   cpu.Cost // nvme_qpair_check_enabled (inline, guards resets)
	Complete    cpu.Cost // completion callback dispatch
}

// PollIter reports the duration of one full poll-loop iteration.
func (c *Costs) PollIter() sim.Time {
	return c.IterProcess.Time + c.IterPCIe.Time + c.IterCheck.Time
}

// DefaultCosts returns the calibrated SPDK cost table.
func DefaultCosts() Costs {
	return Costs{
		AppSetup:    cpu.Cost{Time: 1000 * sim.Nanosecond, Loads: 320, Stores: 150},
		Submit:      cpu.Cost{Time: 380 * sim.Nanosecond, Loads: 90, Stores: 95},
		IterProcess: cpu.Cost{Time: 60 * sim.Nanosecond, Loads: 85, Stores: 40},
		IterPCIe:    cpu.Cost{Time: 40 * sim.Nanosecond, Loads: 50, Stores: 35},
		IterCheck:   cpu.Cost{Time: 20 * sim.Nanosecond, Loads: 45, Stores: 2},
		Complete:    cpu.Cost{Time: 200 * sim.Nanosecond, Loads: 70, Stores: 40},
	}
}

// Stack is one SPDK-driven queue pair. Any number of I/Os may be
// outstanding (fio_plugin drives queue depth from userspace).
type Stack struct {
	eng   *sim.Engine
	proc  *cpu.Proc
	costs Costs
	pr    *probe.Probe
	led   *nvme.Ledger

	drainFn func() // bound once: batch-process visible CQEs

	started    bool
	firstStart sim.Time
	drainAt    sim.Time // scheduled drain boundary, 0 if none
	finalized  bool
}

// NewStack wires an SPDK stack onto a queue pair, executing on the
// given core handle; interrupts are disabled permanently (userspace
// cannot service them). The reactor pins its core outright — SPDK's
// thread-per-core model — so topology lowering keeps other stacks off it
// when the core set arbitrates.
func NewStack(eng *sim.Engine, qp *nvme.QueuePair, proc *cpu.Proc, costs Costs) *Stack {
	s := &Stack{
		eng:   eng,
		proc:  proc,
		costs: costs,
		pr:    probe.Get(eng),
		led:   nvme.NewLedger(eng, qp, "spdk"),
	}
	if proc.Set().Arbitrating() {
		proc.Pin()
	}
	qp.EnableInterrupts(false)
	qp.SetCompletionHook(s.onVisible)
	s.drainFn = s.drain
	return s
}

// Submit issues one I/O through the userspace driver.
func (s *Stack) Submit(write bool, offset int64, length int, done func()) {
	s.begin(write, false, offset, length, done)
}

// Flush issues one NVMe Flush through the userspace driver (SPDK's
// spdk_nvme_ns_cmd_flush): the same submission costs as a data command,
// no transfer, completion by polling like everything else.
func (s *Stack) Flush(done func()) {
	s.begin(false, true, 0, 0, done)
}

func (s *Stack) begin(write, flush bool, offset int64, length int, done func()) {
	sp := s.pr.TakeSpan()
	if !s.started {
		s.started = true
		s.firstStart = s.eng.Now()
	}
	s.proc.Pay(cpu.FnAppUser, s.costs.AppSetup)
	s.proc.Pay(cpu.FnSPDKSubmit, s.costs.Submit)
	// Every submission re-validates the qpair (controller-reset guard).
	s.proc.Pay(cpu.FnQpairCheck, s.costs.IterCheck)

	cid := s.led.Track(done)
	delay := s.costs.AppSetup.Time + s.costs.Submit.Time + s.costs.IterCheck.Time
	s.led.Ring(s.eng.Now()+delay, nvme.Cmd{Write: write, Flush: flush, Offset: offset, Length: length, CID: cid, Span: sp})
}

// onVisible quantizes completion detection to the poll-loop iteration
// grid. A single drain event handles every CQE visible by that boundary,
// matching SPDK's batch completion processing.
func (s *Stack) onVisible() {
	now := s.eng.Now()
	boundary := nvme.PollBoundary(now, now, s.costs.PollIter())
	if s.drainAt >= boundary {
		return // a drain is already scheduled at or after this boundary
	}
	s.drainAt = boundary
	s.eng.At(boundary, s.drainFn)
}

// drain batch-processes every CQE visible at the poll-loop boundary.
// Every drained CQE observes the same completion-processing delay, so
// the whole batch rides one delivery event.
func (s *Stack) drain() {
	s.drainAt = 0
	for s.led.Reap() {
		s.proc.Pay(cpu.FnSPDKProcess, s.costs.Complete)
	}
	s.led.Deliver(s.costs.Complete.Time)
}

// Outstanding reports in-flight I/Os.
func (s *Stack) Outstanding() int { return s.led.Outstanding() }

// Finalize charges the continuous poll spin for the whole active span
// [first submit, end]. SPDK's reactor never sleeps: between and during
// I/Os the loop keeps checking the qpair, which is where its CPU and
// memory-instruction bills come from (Figures 20-22). Call once, at the
// end of a run; a free (zero-cost) loop charges nothing.
func (s *Stack) Finalize(end sim.Time) {
	if s.finalized || !s.started || end <= s.firstStart {
		return
	}
	s.finalized = true
	span := end - s.firstStart
	// Subtract time already charged explicitly to user functions so the
	// utilization sums to ~100%, not above.
	for _, fn := range []cpu.Fn{cpu.FnAppUser, cpu.FnSPDKSubmit, cpu.FnSPDKProcess, cpu.FnQpairCheck} {
		span -= s.proc.Core().Acct(fn).Time
	}
	if span <= 0 {
		return
	}
	iters := nvme.PollIters(span, s.costs.PollIter())
	if iters <= 0 {
		return
	}
	s.proc.PayN(cpu.FnSPDKProcess, s.costs.IterProcess, iters)
	s.proc.PayN(cpu.FnPCIeProcess, s.costs.IterPCIe, iters)
	s.proc.PayN(cpu.FnQpairCheck, s.costs.IterCheck, iters)
}
