// Per-core scheduling: the CPU as a contended resource. A CoreSet holds
// N cores; stacks execute through a Proc handle bound to one of them.
// Work claims the core (queuing behind whatever it is doing and paying a
// run-queue dispatch cost), holds it for its duration, and releases it
// by letting the hold expire. Busy-polling spins hold the core outright;
// an interrupt that resumes a sleeping task pays the wakeup migration
// penalty on top of any run-queue wait.
//
// A one-core set does not arbitrate: every Proc operation degenerates to
// the plain accounting charge, zero added delay, so the historical
// single-core accounting model is the exact N=1 lowering and all
// fixed-seed outputs are bit-identical to it.
package cpu

import (
	"fmt"

	"repro/internal/sim"
)

// SchedCosts parameterizes arbitration: what contending for a core
// costs beyond the work itself.
type SchedCosts struct {
	// Dispatch is the run-queue cost paid when claimed work found its
	// core busy and had to wait for it.
	Dispatch sim.Time
	// Migration is the cache-refill penalty paid when an interrupt wakes
	// a sleeping task back onto its core (the paper's steering story:
	// the IRQ lands, the task is scheduled in, its working set is cold).
	Migration sim.Time
}

// DefaultSchedCosts returns the calibrated arbitration cost table.
func DefaultSchedCosts() SchedCosts {
	return SchedCosts{
		Dispatch:  700 * sim.Nanosecond,
		Migration: 1200 * sim.Nanosecond,
	}
}

// CoreSched counts one core's arbitration activity.
type CoreSched struct {
	Queued    uint64   // claims that found the core busy
	QueueWait sim.Time // total time claims waited for the core
	Wakes     uint64   // interrupt wakeups delivered to the core
	WakeWait  sim.Time // run-queue wait absorbed by those wakeups
	Held      sim.Time // total time the core was held (work + spins)
}

// CoreSet is N cores under one arbiter. With more than one core every
// Proc operation arbitrates occupancy; with one core the set is pure
// accounting (the legacy model).
type CoreSet struct {
	sched     SchedCosts
	arbitrate bool
	cores     []*Core
	procs     []Proc
	busyUntil []sim.Time
	pinned    []bool
	stats     []CoreSched
}

// NewCoreSet returns a set of n cores (n < 1 means 1). Sets larger than
// one core arbitrate with DefaultSchedCosts.
func NewCoreSet(n int) *CoreSet {
	if n < 1 {
		n = 1
	}
	cs := &CoreSet{
		sched:     DefaultSchedCosts(),
		arbitrate: n > 1,
		cores:     make([]*Core, n),
		procs:     make([]Proc, n),
		busyUntil: make([]sim.Time, n),
		pinned:    make([]bool, n),
		stats:     make([]CoreSched, n),
	}
	for i := range cs.cores {
		cs.cores[i] = NewCore()
		cs.procs[i] = Proc{set: cs, id: i}
	}
	return cs
}

// SetSchedCosts overrides the arbitration cost table.
func (cs *CoreSet) SetSchedCosts(c SchedCosts) { cs.sched = c }

// N reports the core count.
func (cs *CoreSet) N() int { return len(cs.cores) }

// Arbitrating reports whether the set arbitrates occupancy (N > 1).
func (cs *CoreSet) Arbitrating() bool { return cs.arbitrate }

// Core returns core i's accounting state.
func (cs *CoreSet) Core(i int) *Core { return cs.cores[i] }

// Proc returns the execution handle bound to core i.
func (cs *CoreSet) Proc(i int) *Proc { return &cs.procs[i] }

// Sched returns core i's arbitration counters.
func (cs *CoreSet) Sched(i int) CoreSched { return cs.stats[i] }

// Pinned reports whether core i is dedicated to a busy-polling reactor.
func (cs *CoreSet) Pinned(i int) bool { return cs.pinned[i] }

// Aggregate returns the set's accounting summed over all cores. For a
// one-core set it is core 0 itself (the legacy view, bit-exact); larger
// sets get a fresh summed snapshot.
func (cs *CoreSet) Aggregate() *Core {
	if len(cs.cores) == 1 {
		return cs.cores[0]
	}
	agg := NewCore()
	for _, c := range cs.cores {
		for f := Fn(0); f < NumFns; f++ {
			a := c.acct[f]
			t := &agg.acct[f]
			t.Time += a.Time
			t.Loads += a.Loads
			t.Stores += a.Stores
			t.Calls += a.Calls
		}
	}
	return agg
}

// Utilization reports every core's split over the same wall window, in
// core order.
func (cs *CoreSet) Utilization(wall sim.Time) []Utilization {
	out := make([]Utilization, len(cs.cores))
	for i, c := range cs.cores {
		out[i] = c.Utilization(wall)
	}
	return out
}

// RegisterGauges points a time-series sampler at the set's per-core
// state: cumulative busy nanoseconds and run-queue wait per core. The
// registrar is the observability layer's Gauge function; keeping the
// naming here keeps the core-count layout in one place.
func (cs *CoreSet) RegisterGauges(register func(name string, fn func() float64)) {
	for i := range cs.cores {
		i := i
		register(fmt.Sprintf("core%d.busy_ns", i), func() float64 {
			return float64(cs.cores[i].BusyTime())
		})
		if cs.arbitrate {
			register(fmt.Sprintf("core%d.queue_wait_ns", i), func() float64 {
				return float64(cs.stats[i].QueueWait)
			})
		}
	}
}

// BusyCores reports how many cores' worth of CPU the whole set burned
// over the wall window: the sum of raw per-core busy/wall ratios, spins
// included. This is the denominator of IOPS-per-core.
func (cs *CoreSet) BusyCores(wall sim.Time) float64 {
	if wall <= 0 {
		return 0
	}
	var busy sim.Time
	for _, c := range cs.cores {
		busy += c.BusyTime()
	}
	return float64(busy) / float64(wall)
}

// Proc is one schedulable context bound to a core of a CoreSet — the
// handle a stack acquires its core through. The zero Proc is invalid;
// get one from CoreSet.Proc or SoloProc.
type Proc struct {
	set *CoreSet
	id  int
}

// SoloProc wraps an existing accounting core in a non-arbitrating
// one-core set: the legacy single-core model as a Proc. Stacks built
// this way charge exactly as they always did.
func SoloProc(c *Core) *Proc {
	cs := &CoreSet{
		sched:     DefaultSchedCosts(),
		cores:     []*Core{c},
		busyUntil: make([]sim.Time, 1),
		pinned:    make([]bool, 1),
		stats:     make([]CoreSched, 1),
	}
	cs.procs = []Proc{{set: cs, id: 0}}
	return &cs.procs[0]
}

// Core returns the accounting state of the bound core.
func (p *Proc) Core() *Core { return p.set.cores[p.id] }

// ID reports the bound core's index.
func (p *Proc) ID() int { return p.id }

// Set returns the owning CoreSet.
func (p *Proc) Set() *CoreSet { return p.set }

// Charge attributes busy time and memory instructions to fn on the
// bound core — accounting only, no occupancy. Use it for costs that run
// inside a span the caller already holds.
func (p *Proc) Charge(fn Fn, d sim.Time, loads, stores uint64) {
	p.set.cores[p.id].Charge(fn, d, loads, stores)
}

// Pay charges one execution of c to fn on the bound core.
func (p *Proc) Pay(fn Fn, c Cost) { p.set.cores[p.id].Pay(fn, c) }

// PayN charges n executions of c to fn on the bound core, as one call.
func (p *Proc) PayN(fn Fn, c Cost, n int64) { p.set.cores[p.id].PayN(fn, c, n) }

// Claim acquires the core for work wanting to start at t: it returns
// when the work can actually begin. On an idle (or non-arbitrating)
// core that is t itself; on a busy core the work queues behind the
// current hold and pays the run-queue dispatch cost.
//
//ullvet:noalloc bench=BenchmarkCoreSchedule
func (p *Proc) Claim(t sim.Time) sim.Time {
	cs := p.set
	if !cs.arbitrate {
		return t
	}
	free := cs.busyUntil[p.id]
	if free <= t {
		return t
	}
	start := free + cs.sched.Dispatch
	st := &cs.stats[p.id]
	st.Queued++
	st.QueueWait += start - t
	p.Charge(FnCtxSwitch, cs.sched.Dispatch, 40, 30)
	return start
}

// Hold occupies the core for [from, to): work claimed at from releases
// the core at to. Holds never shrink the occupancy horizon.
//
//ullvet:noalloc bench=BenchmarkCoreSchedule
func (p *Proc) Hold(from, to sim.Time) {
	cs := p.set
	if !cs.arbitrate || to <= from {
		return
	}
	if to > cs.busyUntil[p.id] {
		cs.busyUntil[p.id] = to
	}
	cs.stats[p.id].Held += to - from
}

// Spin is Hold for a busy-poll wait: the core is occupied by the
// spinning task for the whole window (its iteration costs are charged
// separately by the poller).
func (p *Proc) Spin(from, to sim.Time) { p.Hold(from, to) }

// Wake delivers an interrupt wakeup to a task sleeping on the core and
// returns the extra scheduling delay the resume pays: run-queue wait if
// the core is mid-work, plus the migration (cache-refill) penalty. The
// legacy one-core model pays nothing here — its wakeup latency is
// already in the stack cost tables.
//
//ullvet:noalloc bench=BenchmarkCoreSchedule
func (p *Proc) Wake(t sim.Time) sim.Time {
	cs := p.set
	if !cs.arbitrate {
		return 0
	}
	delay := cs.sched.Migration
	st := &cs.stats[p.id]
	if free := cs.busyUntil[p.id]; free > t {
		delay += free - t
		st.WakeWait += free - t
	}
	st.Wakes++
	p.Charge(FnCtxSwitch, cs.sched.Migration, 60, 45)
	return delay
}

// Pin dedicates the core to a busy-polling reactor (an SPDK reactor or
// an SQPOLL thread): topology lowering keeps other stacks off pinned
// cores while unpinned ones remain.
func (p *Proc) Pin() { p.set.pinned[p.id] = true }
