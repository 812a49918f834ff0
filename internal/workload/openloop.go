// Open-loop load generation: I/Os arrive on a clock (fixed-rate,
// Poisson, or bursty on-off), independent of completions, the way
// traffic from many independent clients hits a storage server. The
// closed-loop engine in workload.go can only sweep queue depth; this one
// sweeps *offered load*, which is what the paper's interference and
// tail-latency claims (Sections III-V) are really about. Arrivals beyond
// the in-flight admission cap wait in a bounded FIFO; beyond that they
// are dropped — overload is observable (Deferred/Dropped counters)
// instead of unbounded.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
)

// ArrivalKind selects the arrival process of an open-loop job.
type ArrivalKind int

// The three arrival processes.
const (
	// FixedRate spaces arrivals exactly 1/Rate apart.
	FixedRate ArrivalKind = iota
	// Poisson draws exponential interarrival gaps with mean 1/Rate.
	Poisson
	// Bursty is an on-off modulated Poisson process: exponential gaps at
	// Rate during each On window, silence during each Off gap.
	Bursty
)

var arrivalNames = []string{"fixed", "poisson", "bursty"}

func (k ArrivalKind) String() string {
	if int(k) < len(arrivalNames) {
		return arrivalNames[k]
	}
	return fmt.Sprintf("ArrivalKind(%d)", int(k))
}

// Arrival describes an open-loop arrival process. Rate is the mean
// arrival rate in I/Os per second while the process is active; Bursty
// additionally cycles through On (active) and Off (silent) windows.
type Arrival struct {
	Kind ArrivalKind
	Rate float64  // arrivals per second while active (> 0)
	On   sim.Time // Bursty: length of the active window (> 0)
	Off  sim.Time // Bursty: length of the silent gap
}

// arrivalClock generates the arrival instants of one process. It is
// driven chained — each arrival computes the next — so the event heap
// holds at most one pending arrival per tenant.
type arrivalClock struct {
	a     Arrival
	rng   *sim.RNG
	next  sim.Time // the upcoming arrival instant
	phase sim.Time // Bursty: start of the first On window
}

func newArrivalClock(a Arrival, start sim.Time, rng *sim.RNG) *arrivalClock {
	if a.Rate <= 0 {
		panic("workload: arrival rate must be positive")
	}
	if a.Kind == Bursty && a.On <= 0 {
		panic("workload: bursty arrivals need a positive On window")
	}
	c := &arrivalClock{a: a, rng: rng, phase: start}
	switch a.Kind {
	case FixedRate:
		c.next = start // the first arrival fires immediately
	default:
		c.next = c.skipOff(start + c.gap())
	}
	return c
}

// gap draws one interarrival gap (>= 1ns so the clock always advances).
func (c *arrivalClock) gap() sim.Time {
	mean := 1e9 / c.a.Rate // ns
	var g sim.Time
	if c.a.Kind == FixedRate {
		g = sim.Time(mean)
	} else {
		g = sim.Time(c.rng.Exp(mean))
	}
	if g < 1 {
		g = 1
	}
	return g
}

// skipOff pushes an instant that lands in an Off gap to the start of the
// next On window.
func (c *arrivalClock) skipOff(t sim.Time) sim.Time {
	if c.a.Kind != Bursty || c.a.Off <= 0 {
		return t
	}
	cycle := c.a.On + c.a.Off
	p := (t - c.phase) % cycle
	if p >= c.a.On {
		t += cycle - p
	}
	return t
}

// pop returns the current arrival instant and advances the clock.
func (c *arrivalClock) pop() sim.Time {
	t := c.next
	c.next = c.skipOff(t + c.gap())
	return t
}

// Open-loop admission defaults.
const (
	// DefaultMaxInFlight is the admission cap when OpenJob.MaxInFlight is
	// zero; sync stacks are always clamped to 1.
	DefaultMaxInFlight = 32
	// DefaultQueueCap bounds the arrival FIFO when OpenJob.QueueCap is
	// zero. Arrivals past cap+queue are dropped, never buffered.
	DefaultQueueCap = 1024
)

// OpenJob describes one open-loop tenant: a Spec paced by an arrival
// process instead of a queue depth. Spec.TotalIOs counts *arrivals*
// here, and Spec.SyncEvery chases every Nth write arrival with an fsync
// that rides the same admission machinery as an I/O — it takes a slot
// and can defer — but is never dropped: durability requests queue past
// a full FIFO instead of vanishing (fsyncs count in neither Offered nor
// Admitted).
type OpenJob struct {
	Spec
	Arrival Arrival

	// MaxInFlight caps concurrently submitted I/Os (0: DefaultMaxInFlight;
	// clamped to 1 on synchronous stacks, which serve one I/O at a time).
	MaxInFlight int
	// QueueCap bounds the FIFO of admitted-but-waiting arrivals
	// (0: DefaultQueueCap; negative: no queue, overload drops instantly).
	QueueCap int
	// CPU caps the tenant's submission-side compute (zero: unlimited).
	CPU CPUBudget
}

// CPUBudget rations a tenant's submission-side CPU: each admitted I/O
// consumes PerOp core-time on a virtual thread pool of Cores cores, so
// issues cannot leave faster than Cores/PerOp per second — a cgroup
// cpu.max for the tenant's submit path. The zero budget (either field
// zero) is unlimited and adds no events, keeping unbudgeted runs
// byte-identical. Throttled issues still hold their admission slot;
// the stall is visible in CPUThrottled/CPUWait and, because latency is
// measured from arrival, in every percentile.
type CPUBudget struct {
	Cores float64  // virtual submit cores (> 0 to enable)
	PerOp sim.Time // core-time consumed per admitted I/O
}

// quantum is the minimum spacing the budget enforces between issues.
func (b CPUBudget) quantum() sim.Time {
	if b.Cores <= 0 || b.PerOp <= 0 {
		return 0
	}
	q := sim.Time(float64(b.PerOp) / b.Cores)
	if q < 1 {
		q = 1
	}
	return q
}

// OpenResult extends Result with the open-loop admission counters. The
// Job field shadows the embedded (zero) Result.Job with the OpenJob that
// produced it. Latencies are measured from *arrival*, so queueing delay
// under overload is part of every percentile — that is the point.
type OpenResult struct {
	Result
	Job       OpenJob
	Offered   uint64 // arrivals generated by the arrival process
	Admitted  uint64 // arrivals submitted to the stack
	Deferred  uint64 // arrivals that had to wait in the admission queue
	Dropped   uint64 // arrivals discarded because the queue was full
	PeakQueue int    // high-water mark of the admission queue

	// CPU-budget stalls (zero without a budget).
	CPUThrottled uint64   // issues delayed by the CPU budget
	CPUWait      sim.Time // total delay the budget imposed
}

// pendingIO is one arrival waiting for (or holding) an admission slot.
type pendingIO struct {
	seq     int
	write   bool
	sync    bool // an fsync chasing the Nth write, not an I/O
	offset  int64
	arrival sim.Time
}

type openRunner struct {
	svc      Service
	job      OpenJob
	ops      opSource
	clock    *arrivalClock
	clockRNG *sim.RNG // seeds the arrival clock once start() fixes t=0
	tenant   int
	pr       *probe.Probe
	// Span kinds for the job's op classes (see spanKinds).
	rdKind, wrKind probe.Kind

	cap      int
	queueCap int
	queue    sim.FIFO[pendingIO]
	inFlight int

	generating  bool
	writesSince int      // write arrivals since the last fsync
	stopAt      sim.Time // arrival generation deadline (0: none)
	startT      sim.Time
	arriveFn    func()   // bound once; the chained arrival event
	cpuQuantum  sim.Time // CPU-budget spacing between issues (0: none)
	cpuFree     sim.Time // when the budgeted submit pool is next free

	m   meter
	res OpenResult
}

// mixTenantSeed derives a tenant's private seed so co-tenants that carry
// the same OpenJob.Seed still draw independent streams.
func mixTenantSeed(seed uint64, tenant int) uint64 {
	return seed ^ 0x9e3779b97f4a7c15*uint64(tenant+1)
}

func newOpenRunner(svc Service, job OpenJob, tenant int) *openRunner {
	if job.TotalIOs <= 0 && job.Duration <= 0 {
		panic("workload: open-loop job needs a stop condition (TotalIOs or Duration)")
	}
	capIF := job.MaxInFlight
	if capIF == 0 {
		capIF = DefaultMaxInFlight
	}
	if capIF < 0 {
		panic("workload: open-loop admission cap must be positive")
	}
	if svc.Serial() {
		capIF = 1 // pvsync2 serves one I/O at a time
	}
	qc := job.QueueCap
	if qc == 0 {
		qc = DefaultQueueCap
	}
	if qc < 0 {
		qc = 0
	}
	base := sim.NewRNG(mixTenantSeed(job.Seed, tenant))
	r := &openRunner{
		svc:        svc,
		job:        job,
		ops:        newOpSource(svc, &job.Spec, base.Fork()),
		clockRNG:   base.Fork(),
		tenant:     tenant,
		pr:         probe.Get(svc.Engine()),
		cap:        capIF,
		queueCap:   qc,
		cpuQuantum: job.CPU.quantum(),
	}
	r.rdKind, r.wrKind = spanKinds(&job.Spec)
	r.arriveFn = r.arrive
	r.res.Job = job
	if job.SeriesBucket > 0 {
		r.res.Series = metrics.NewSeries(job.SeriesBucket)
		r.res.WriteSeries = metrics.NewSeries(job.SeriesBucket)
	}
	return r
}

func (r *openRunner) start() {
	r.startT = r.svc.Engine().Now()
	if r.job.Duration > 0 {
		r.stopAt = r.startT + r.job.Duration
	}
	r.m = meter{
		warmupIOs:  r.job.WarmupIOs,
		warmupTime: r.job.WarmupTime,
		blockSize:  r.job.BlockSize,
		startT:     r.startT,
		trace:      r.job.Trace,
		res:        &r.res.Result,
	}
	r.generating = true
	r.clock = newArrivalClock(r.job.Arrival, r.startT, r.clockRNG)
	r.scheduleNext()
}

// scheduleNext chains the next arrival event; the heap never holds more
// than one pending arrival per tenant.
func (r *openRunner) scheduleNext() {
	if !r.generating {
		return
	}
	if r.job.TotalIOs > 0 && int(r.res.Offered) >= r.job.TotalIOs {
		r.generating = false
		return
	}
	t := r.clock.pop()
	if r.stopAt > 0 && t >= r.stopAt {
		r.generating = false
		return
	}
	r.svc.Engine().At(t, r.arriveFn)
}

func (r *openRunner) arrive() {
	now := r.svc.Engine().Now()
	seq := int(r.res.Offered)
	r.res.Offered++
	// Chain the next arrival before issuing this one: at equal
	// timestamps the offered stream stays ahead of the completion work
	// the submission below schedules.
	r.scheduleNext()
	write, offset := r.ops.next()
	p := pendingIO{seq: seq, write: write, offset: offset, arrival: now}
	switch {
	case r.inFlight < r.cap && r.queue.Len() == 0:
		r.issue(p)
	case r.queue.Len() < r.queueCap:
		r.res.Deferred++
		r.queue.Push(p)
		if q := r.queue.Len(); q > r.res.PeakQueue {
			r.res.PeakQueue = q
		}
	default:
		r.res.Dropped++
	}
	if write && r.job.SyncEvery > 0 {
		r.writesSince++
		if r.writesSince >= r.job.SyncEvery {
			r.writesSince = 0
			r.chaseSync(now)
		}
	}
}

// chaseSync enqueues the fsync that follows the Nth write. It competes
// for an admission slot like an I/O but is never dropped — a client
// does not skip durability because the queue is long.
func (r *openRunner) chaseSync(now sim.Time) {
	r.res.Fsyncs++
	p := pendingIO{sync: true, arrival: now}
	if r.inFlight < r.cap && r.queue.Len() == 0 {
		r.issue(p)
		return
	}
	r.res.Deferred++
	r.queue.Push(p)
	if q := r.queue.Len(); q > r.res.PeakQueue {
		r.res.PeakQueue = q
	}
}

func (r *openRunner) issue(p pendingIO) {
	r.inFlight++
	if p.sync {
		// Durability barriers ride the stack's own machinery; the budget
		// meters I/O submission work only.
		sp := r.pr.Start(probe.KFsync, r.tenant, p.arrival)
		sp.To(probe.PAdmit, r.svc.Engine().Now())
		r.pr.SetSpan(sp)
		r.svc.Sync(func() { r.onDone(p, sp) })
		return
	}
	r.res.Admitted++
	if r.cpuQuantum > 0 {
		now := r.svc.Engine().Now()
		startAt := now
		if r.cpuFree > now {
			startAt = r.cpuFree
			r.res.CPUThrottled++
			r.res.CPUWait += startAt - now
		}
		r.cpuFree = startAt + r.cpuQuantum
		if startAt > now {
			r.svc.Engine().At(startAt, func() { r.fire(p) })
			return
		}
	}
	r.fire(p)
}

// fire submits one admitted (and, if budgeted, CPU-cleared) I/O. The
// span opens here, backdated to the arrival, so dropped arrivals never
// open one and PAdmit absorbs queueing plus any CPU-budget stall.
func (r *openRunner) fire(p pendingIO) {
	kind := r.rdKind
	if p.write {
		kind = r.wrKind
	}
	sp := r.pr.Start(kind, r.tenant, p.arrival)
	sp.To(probe.PAdmit, r.svc.Engine().Now())
	r.pr.SetSpan(sp)
	r.svc.Issue(p.write, p.offset, r.job.BlockSize, func() { r.onDone(p, sp) })
}

func (r *openRunner) onDone(p pendingIO, sp *probe.Span) {
	now := r.svc.Engine().Now()
	r.pr.End(sp, now)
	r.inFlight--
	if p.sync {
		// Fsync latency counts from arrival too, but lands in its own
		// histogram; warmup-window fsyncs are discarded with the rest.
		if r.m.measureSet || r.job.WarmupIOs == 0 && r.job.WarmupTime == 0 {
			r.res.Fsync.Record(now - p.arrival)
		}
	} else {
		// Latency counts from arrival: queueing delay is part of what an
		// open-loop client experiences.
		r.m.observe(p.seq, p.write, p.offset, p.arrival, now)
	}
	if r.queue.Len() > 0 && r.inFlight < r.cap {
		r.issue(r.queue.Pop())
	}
}

func (r *openRunner) result() *OpenResult {
	r.m.finish()
	if w, ok := r.svc.(WearReporter); ok {
		r.res.Wear = w.WearStats()
	}
	// One probe serves the whole graph, so on a multi-tenant run every
	// tenant's Result carries the same aggregate breakdown.
	r.res.Breakdown = r.pr.Breakdown()
	return &r.res
}

// RunOpen drives one open-loop job against sys to completion: arrivals
// stop at the job's stop condition, the engine drains the queue and all
// in-flight I/Os, and deferred accounting is finalized. Like Run, sys
// is any Target-rooted system (core.Host).
func RunOpen(sys core.Host, job OpenJob) *OpenResult {
	return RunOpenService(AsService(sys), job)
}

// RunOpenService is RunOpen for any Service.
func RunOpenService(svc Service, job OpenJob) *OpenResult {
	return RunTenantsService(svc, job)[0]
}

// RunTenants drives N open-loop tenants concurrently against one system
// — the multi-tenant mixing the paper's interference sections study
// (e.g. a latency-sensitive random reader beside a bandwidth-hog
// sequential writer). Tenants share the stack, the queues, and the
// device; each gets its own arrival process, admission state, and
// Result. Tenants carrying identical Seeds still draw independent
// streams (the tenant index is mixed into every seed).
func RunTenants(sys core.Host, jobs ...OpenJob) []*OpenResult {
	return RunTenantsService(AsService(sys), jobs...)
}

// RunTenantsService is RunTenants for any Service — N tenants sharing
// one block host or one KV store.
func RunTenantsService(svc Service, jobs ...OpenJob) []*OpenResult {
	if len(jobs) == 0 {
		panic("workload: RunTenants needs at least one job")
	}
	if svc.Serial() && len(jobs) > 1 {
		// The per-tenant admission clamp bounds each tenant to one
		// in-flight I/O, but the pvsync2 invariant is global: a second
		// tenant would overlap the first mid-syscall and panic deep in
		// the stack. Fail here, where the mistake is legible.
		panic("workload: synchronous stacks serve one tenant at a time (one I/O outstanding globally)")
	}
	runners := make([]*openRunner, len(jobs))
	for i, job := range jobs {
		runners[i] = newOpenRunner(svc, job, i)
	}
	for _, r := range runners {
		r.start()
	}
	svc.Engine().Run()
	svc.Finalize()
	out := make([]*OpenResult, len(runners))
	for i, r := range runners {
		out[i] = r.result()
	}
	return out
}
