// Package kernel models the Linux 4.14 NVMe storage stack of the paper:
// the syscall/VFS/blk-mq/driver submission pipeline and the three I/O
// completion methods — interrupt-driven, polled (queue_io_poll, Linux
// 4.4), and hybrid polling (Linux 4.10+) — with per-stage CPU-time and
// memory-instruction accounting attributed to the function names the
// paper profiles (blk_mq_poll, nvme_poll, ISR, ...).
package kernel

import (
	"repro/internal/cpu"
	"repro/internal/sim"
)

// Costs is the calibrated cost table of the stack. The defaults target
// the ratios the paper reports (see EXPERIMENTS.md): interrupt-mode CPU
// utilization ~9% user + ~8% kernel, polling ~96% kernel, poll-vs-
// interrupt latency gap ~2µs, poll load/store counts 2.37×/1.78× the
// interrupt counts.
type Costs struct {
	// Submission path, charged once per I/O.
	AppSetup cpu.Cost // fio engine user code around the syscall
	Syscall  cpu.Cost // entry+exit combined; charged half and half
	VFS      cpu.Cost // VFS + O_DIRECT mapping
	BlkMQ    cpu.Cost // bio -> software queue -> hardware queue
	Driver   cpu.Cost // SQE build + doorbell MMIO

	// Interrupt completion.
	ISR         cpu.Cost // MSI handling + softirq completion
	CtxSwitch   cpu.Cost // sleep + wake context-switch pair (busy part)
	WakeLatency sim.Time // run-queue delay before the app resumes (idle)

	// Polled completion: one CQ-check iteration is a blk_mq_poll shell
	// (reschedule checks, cookie lookup) plus the nvme_poll CQ walk.
	PollIterBlk  cpu.Cost
	PollIterNVMe cpu.Cost
	PollComplete cpu.Cost // request completion in the poll path

	// Poll-wait work stealing: a spinning poller holds its core with a
	// spin lock and no context switch, so deferred kernel work (softirq
	// backlogs, timers, kworkers) that an idle core would have absorbed
	// for free lands on the poll wait instead. Waits longer than
	// PollStealThreshold lose PollStealFrac of their duration to that
	// work. This is the mechanism behind the paper's Figure 11: polling
	// wins on average but loses ~12% at the 99.999th percentile, where
	// waits are long.
	PollStealThreshold sim.Time
	PollStealFrac      float64

	// Hybrid polling. The 4.14 implementation sleeps half the tracked
	// mean of *total* request latency (blk_stat's rq timing); the wakeup
	// path (hrtimer softirq + scheduling) adds a jittered delay before
	// the poll loop resumes — together these are why hybrid's savings
	// fall well short of classic polling (Figure 16).
	TimerProgram      cpu.Cost
	TimerWake         cpu.Cost
	HybridWakeJitter  sim.Time // mean of the exponential wake-latency tail
	HybridSleepFactor float64  // fraction of tracked mean to sleep (4.14: 0.5)
	HybridMinSleep    sim.Time // below this, hybrid degenerates to poll
}

// PollIter is the duration of one complete poll-loop iteration.
func (c *Costs) PollIter() sim.Time {
	return c.PollIterBlk.Time + c.PollIterNVMe.Time
}

// DefaultCosts returns the calibrated stack cost table.
func DefaultCosts() Costs {
	return Costs{
		AppSetup: cpu.Cost{Time: 1000 * sim.Nanosecond, Loads: 320, Stores: 150},
		Syscall:  cpu.Cost{Time: 120 * sim.Nanosecond, Loads: 60, Stores: 40},
		VFS:      cpu.Cost{Time: 180 * sim.Nanosecond, Loads: 130, Stores: 60},
		BlkMQ:    cpu.Cost{Time: 150 * sim.Nanosecond, Loads: 110, Stores: 70},
		Driver:   cpu.Cost{Time: 120 * sim.Nanosecond, Loads: 70, Stores: 75},

		ISR:         cpu.Cost{Time: 400 * sim.Nanosecond, Loads: 120, Stores: 60},
		CtxSwitch:   cpu.Cost{Time: 500 * sim.Nanosecond, Loads: 90, Stores: 80},
		WakeLatency: 900 * sim.Nanosecond,

		// One poll iteration ~110ns: the blk_mq_poll shell dominates the
		// cycle count (need_resched checks, hctx/cookie handling), the
		// nvme_poll CQ-entry load is the uncached DMA-coherent access.
		PollIterBlk:  cpu.Cost{Time: 80 * sim.Nanosecond, Loads: 11, Stores: 4},
		PollIterNVMe: cpu.Cost{Time: 20 * sim.Nanosecond, Loads: 5, Stores: 1},
		PollComplete: cpu.Cost{Time: 260 * sim.Nanosecond, Loads: 90, Stores: 60},

		PollStealThreshold: 300 * sim.Microsecond,
		PollStealFrac:      0.12,

		TimerProgram:      cpu.Cost{Time: 150 * sim.Nanosecond, Loads: 40, Stores: 30},
		TimerWake:         cpu.Cost{Time: 650 * sim.Nanosecond, Loads: 110, Stores: 70},
		HybridWakeJitter:  2200 * sim.Nanosecond,
		HybridSleepFactor: 0.5,
		HybridMinSleep:    2 * sim.Microsecond,
	}
}
