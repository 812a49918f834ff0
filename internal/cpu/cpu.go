// Package cpu models the host CPU two ways at once.
//
// Core is the accounting view: per-function busy time and
// memory-instruction (load/store) counters, split into user and kernel
// mode — what the paper measured with Intel VTune and the FIO reports:
// CPU utilization (Figures 12, 13, 20), cycle breakdowns (Figure 14),
// and memory-instruction counts and breakdowns (Figures 15, 21, 22). It
// also owns the scheduler-tick model that penalizes busy polling
// (Figure 11's tail inversion).
//
// CoreSet is the arbitration view (sched.go): N cores, each a real
// contended resource. Stacks execute work through a Proc handle —
// claim the core, hold it for the work's duration, pay run-queue
// dispatch when the core was busy, pay wakeup migration when an
// interrupt resumes a sleeper, pin a core outright for a busy-polling
// reactor. A one-core set arbitrates nothing (every Proc operation is
// the plain accounting charge), so the historical single-core model is
// the exact N=1 lowering of this one.
package cpu

import "repro/internal/sim"

// Fn identifies an attributable function or code region, mirroring the
// symbol names VTune reported in the paper.
type Fn uint8

// The attribution targets.
const (
	FnAppUser     Fn = iota // benchmark/user code (fio engine)
	FnSyscall               // syscall entry/exit
	FnVFS                   // VFS + file-system request setup
	FnExt4                  // ext4 metadata/journaling work (NBD client)
	FnBlkMQSubmit           // blk-mq software/hardware queue handling
	FnNVMeDriver            // SQE build + doorbell
	FnBlkMQPoll             // blk_mq_poll()
	FnNVMePoll              // nvme_poll()
	FnISR                   // MSI handling + softirq completion
	FnCtxSwitch             // sleep/wake context switching
	FnTimer                 // hybrid-polling hrtimer program/wake
	FnSPDKSubmit            // SPDK userspace submission
	FnSPDKProcess           // spdk_nvme_qpair_process_completions()
	FnPCIeProcess           // nvme_pcie_qpair_process_completions()
	FnQpairCheck            // nvme_qpair_check_enabled()
	FnUringSubmit           // io_uring_enter SQE fetch/build/doorbell
	FnUringReap             // io_uring CQE posting + ring completion
	FnSQPoll                // io_sq_thread() SQPOLL kernel-thread loop
	FnOther                 // everything else (tick work, misc kernel)
	NumFns
)

var fnNames = [NumFns]string{
	"app_user", "syscall", "vfs", "ext4", "blk_mq_submit", "nvme_driver",
	"blk_mq_poll", "nvme_poll", "isr", "context_switch", "hrtimer",
	"spdk_submit", "spdk_nvme_qpair_process_completions",
	"nvme_pcie_qpair_process_completions", "nvme_qpair_check_enabled",
	"io_uring_submit", "io_uring_reap", "io_sq_thread",
	"other",
}

func (f Fn) String() string { return fnNames[f] }

// Kernel reports whether the function executes in kernel mode. SPDK code
// and the application run in userland.
func (f Fn) Kernel() bool {
	switch f {
	case FnAppUser, FnSPDKSubmit, FnSPDKProcess, FnPCIeProcess, FnQpairCheck:
		return false
	default:
		return true
	}
}

// Driver reports whether the function belongs to the NVMe driver module
// (as opposed to the rest of the storage stack) — Figure 14a's split.
func (f Fn) Driver() bool {
	switch f {
	case FnNVMeDriver, FnNVMePoll:
		return true
	default:
		return false
	}
}

// Counters accumulates one function's activity.
type Counters struct {
	Time   sim.Time
	Loads  uint64
	Stores uint64
	Calls  uint64
}

// Cost is the CPU time and memory-instruction bill of one execution of
// a code path — one row of a stack's cost table.
type Cost struct {
	Time   sim.Time
	Loads  uint64
	Stores uint64
}

// Core is one CPU hardware thread's accounting state.
type Core struct {
	// TickInterval is the scheduler-tick period (CONFIG_HZ=1000 → 1ms);
	// TickWork is how long tick processing steals from a busy poller.
	TickInterval sim.Time
	TickWork     sim.Time

	acct [NumFns]Counters
}

// NewCore returns a core with the Linux-default 1ms tick.
func NewCore() *Core {
	return &Core{
		TickInterval: 1 * sim.Millisecond,
		TickWork:     8 * sim.Microsecond,
	}
}

// Charge attributes busy time and memory instructions to fn.
func (c *Core) Charge(fn Fn, d sim.Time, loads, stores uint64) {
	a := &c.acct[fn]
	a.Time += d
	a.Loads += loads
	a.Stores += stores
	a.Calls++
}

// Pay charges one execution of c to fn.
func (c *Core) Pay(fn Fn, cost Cost) { c.Charge(fn, cost.Time, cost.Loads, cost.Stores) }

// PayN charges n executions of c to fn as one call: Calls counts the
// charge, not the executions.
func (c *Core) PayN(fn Fn, cost Cost, n int64) {
	c.Charge(fn, cost.Time*sim.Time(n), cost.Loads*uint64(n), cost.Stores*uint64(n))
}

// Acct returns fn's counters.
func (c *Core) Acct(fn Fn) Counters { return c.acct[fn] }

// Reset clears all counters.
func (c *Core) Reset() { c.acct = [NumFns]Counters{} }

// UserTime and KernelTime report busy time by mode.
func (c *Core) UserTime() sim.Time {
	var t sim.Time
	for f := Fn(0); f < NumFns; f++ {
		if !f.Kernel() {
			t += c.acct[f].Time
		}
	}
	return t
}

func (c *Core) KernelTime() sim.Time {
	var t sim.Time
	for f := Fn(0); f < NumFns; f++ {
		if f.Kernel() {
			t += c.acct[f].Time
		}
	}
	return t
}

// BusyTime is user plus kernel time.
func (c *Core) BusyTime() sim.Time { return c.UserTime() + c.KernelTime() }

// Loads and Stores report totals across all functions.
func (c *Core) Loads() uint64 {
	var n uint64
	for f := Fn(0); f < NumFns; f++ {
		n += c.acct[f].Loads
	}
	return n
}

func (c *Core) Stores() uint64 {
	var n uint64
	for f := Fn(0); f < NumFns; f++ {
		n += c.acct[f].Stores
	}
	return n
}

// Utilization is a user/kernel/idle percentage split over a wall-clock
// window, plus the raw over-subscription factor the split was derived
// from.
type Utilization struct {
	User   float64
	Kernel float64
	Idle   float64
	// Oversub is the raw busy/wall ratio before any clamping: 1.0 means
	// exactly one core's worth of work landed in the window, 2.0 means
	// the accounting demanded two cores. The User/Kernel split clamps to
	// 100% for display compatibility, but the overflow is exactly the
	// multi-core demand signal — it used to be discarded silently.
	Oversub float64
}

// Utilization reports the split for a run of the given duration.
func (c *Core) Utilization(wall sim.Time) Utilization {
	if wall <= 0 {
		return Utilization{Idle: 100}
	}
	u := 100 * float64(c.UserTime()) / float64(wall)
	k := 100 * float64(c.KernelTime()) / float64(wall)
	raw := (u + k) / 100
	if u+k > 100 {
		// Accounting exceeds wall time when charges overlap (async
		// completions) or when one accounting core absorbs several
		// cores' worth of work (an SQPOLL thread beside the submitter);
		// clamp the split proportionally and report the factor raw.
		scale := 100 / (u + k)
		u *= scale
		k *= scale
	}
	return Utilization{User: u, Kernel: k, Idle: 100 - u - k, Oversub: raw}
}

// TicksIn reports how many scheduler ticks fire in the half-open wall
// interval (t0, t1].
func (c *Core) TicksIn(t0, t1 sim.Time) int {
	if t1 <= t0 || c.TickInterval <= 0 {
		return 0
	}
	return int(t1/c.TickInterval) - int(t0/c.TickInterval)
}
