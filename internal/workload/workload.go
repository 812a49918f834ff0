// Package workload is the FIO-equivalent job engine (Section III-A):
// sequential/random read/write/mixed access patterns, configurable block
// size and queue depth, warmup discard, and per-direction latency
// histograms plus optional time series — everything the paper's
// microbenchmarks measure.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// Pattern is an access pattern.
type Pattern int

// The five patterns the paper uses.
const (
	SeqRead Pattern = iota
	RandRead
	SeqWrite
	RandWrite
	RandRW // random mix; Job.WriteFraction sets the write share
)

var patternNames = []string{"SeqRd", "RndRd", "SeqWr", "RndWr", "RndRW"}

func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Reads reports whether the pattern ever reads; Writes likewise.
func (p Pattern) Reads() bool  { return p == SeqRead || p == RandRead || p == RandRW }
func (p Pattern) Writes() bool { return p == SeqWrite || p == RandWrite || p == RandRW }

// Spec holds the fields shared by every load engine: the op mix,
// sizing, stop condition, warmup discard, durability cadence, seeding,
// and recording hooks. Closed-loop Jobs and open-loop OpenJobs embed it
// and add only their pacing knobs (queue depth vs arrival process).
type Spec struct {
	Name          string
	Pattern       Pattern
	WriteFraction float64 // RandRW only: probability an op is a write
	BlockSize     int     // bytes per op (the value size on a keyed job)
	// Keyspace, when Keys > 0, makes this a keyed job: positions are
	// keys drawn from the configured distribution instead of byte
	// offsets, reads are gets and writes are puts of BlockSize bytes.
	Keyspace Keyspace
	// TotalIOs stops the job after this many measured ops closed-loop,
	// or this many arrivals open-loop (0: use Duration).
	TotalIOs   int
	Duration   sim.Time // stop issuing after this much virtual time
	WarmupIOs  int      // completions discarded before measuring
	WarmupTime sim.Time // completions before this offset are discarded
	// Region bounds the byte extent a block job touches (0: everything).
	// Block jobs only: a keyed job sizes its extent with Keyspace.Keys,
	// so setting Region there panics rather than being silently ignored.
	Region int64
	// SyncEvery issues one fsync after every N writes (fio's fsync=N;
	// 0: never). The fsync occupies a queue slot like an I/O and runs
	// full filesystem sync semantics on an FS-rooted host, a bare
	// device flush otherwise; latencies land in Result.Fsync.
	SyncEvery    int
	Seed         uint64
	SeriesBucket sim.Time        // when set, record a latency time series
	Trace        *trace.Recorder // when set, record every measured I/O
}

// Job describes one closed-loop benchmark run: a Spec paced by a fixed
// number of outstanding operations.
type Job struct {
	Spec
	QueueDepth int // outstanding ops (serial services require 1)
}

// Result carries everything an experiment needs.
type Result struct {
	Job   Job
	Read  metrics.Histogram // read completion latencies
	Write metrics.Histogram // write completion latencies
	All   metrics.Histogram
	// Fsync holds fsync latencies (SyncEvery jobs); fsyncs are not
	// I/Os — they appear in neither All nor the IOPS denominator.
	// Warmup-window fsyncs are discarded like warmup I/Os.
	Fsync  metrics.Histogram
	Fsyncs uint64 // fsyncs issued, warmup included
	IOs    uint64
	Bytes  int64
	// Wall is the measured window: from the end of warmup (the last
	// discarded completion for count-based warmup, the warmup-time offset
	// for time-based warmup, the issue start with no warmup) to the last
	// measured completion. Never negative; 0 when nothing was measured.
	Wall        sim.Time
	Series      *metrics.Series // per-bucket mean latency (SeriesBucket set)
	WriteSeries *metrics.Series
	// Wear reports per-device media wear — erase counts and write
	// amplification — in topology lowering order, when the service (or
	// the host under it) exposes WearStats. Nil otherwise.
	Wear []ssd.WearReport
	// Breakdown is the per-phase latency attribution aggregated over the
	// run's spans, when the service's engine carries a probe configured
	// for breakdowns. Nil otherwise.
	Breakdown *probe.Breakdown
}

// IOPS reports measured I/O operations per second.
func (r *Result) IOPS() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.IOs) / r.Wall.Seconds()
}

// BandwidthMBps reports measured bandwidth in MB/s.
func (r *Result) BandwidthMBps() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Wall.Seconds()
}

// Run drives job against sys until the stop condition, runs the engine
// to drain, finalizes deferred accounting, and returns the measurements.
// sys is any Target-rooted system: a built core.Graph over one device
// or many (stripes, tiers, concats).
func Run(sys core.Host, job Job) *Result { return RunService(AsService(sys), job) }

// RunService is Run for any Service — a block host behind AsService, or
// an application tier such as the kv.Store.
func RunService(svc Service, job Job) *Result {
	r := newRunner(svc, job)
	r.start()
	svc.Engine().Run()
	svc.Finalize()
	return r.result()
}

// opStream generates a job's (write, offset) sequence. The closed-loop
// and open-loop runners share it, so a given pattern+seed produces the
// same I/O stream regardless of how arrivals are paced.
type opStream struct {
	pattern       Pattern
	writeFraction float64
	blockSize     int
	blocks        int64 // region / block size
	seqCursor     int64
	rng           *sim.RNG
}

// newOpStream validates the pattern geometry and returns a stream.
// space is the service's byte extent (Service.Ops for a block service).
func newOpStream(space int64, pattern Pattern, writeFraction float64, blockSize int, region int64, rng *sim.RNG) *opStream {
	if blockSize <= 0 {
		panic("workload: block size must be positive")
	}
	if region == 0 || region > space {
		region = space
	}
	blocks := region / int64(blockSize)
	if blocks <= 0 {
		panic("workload: region smaller than one block")
	}
	return &opStream{
		pattern:       pattern,
		writeFraction: writeFraction,
		blockSize:     blockSize,
		blocks:        blocks,
		rng:           rng,
	}
}

func (s *opStream) next() (write bool, offset int64) {
	switch s.pattern {
	case SeqRead, SeqWrite:
		offset = (s.seqCursor % s.blocks) * int64(s.blockSize)
		s.seqCursor++
		write = s.pattern == SeqWrite
	case RandRead, RandWrite:
		offset = s.rng.Int63n(s.blocks) * int64(s.blockSize)
		write = s.pattern == RandWrite
	case RandRW:
		offset = s.rng.Int63n(s.blocks) * int64(s.blockSize)
		write = s.rng.Bool(s.writeFraction)
	default:
		panic("workload: unknown pattern")
	}
	return write, offset
}

// meter accumulates the measured-window statistics shared by the
// closed-loop and open-loop runners: warmup discard (by I/O count and by
// time), per-direction histograms, optional series and trace, and the
// measurement window behind Result.Wall.
type meter struct {
	warmupIOs  int
	warmupTime sim.Time
	blockSize  int
	startT     sim.Time
	trace      *trace.Recorder

	measured     uint64
	bytes        int64
	lastDone     sim.Time
	lastWarm     sim.Time // completion time of the last discarded I/O
	measureStart sim.Time // start of the measured window
	measureSet   bool
	res          *Result
}

// observe records one completion. seq is the I/O's issue (or arrival)
// order, start the instant its latency is measured from.
func (m *meter) observe(seq int, write bool, offset int64, start, now sim.Time) {
	m.lastDone = now
	if seq < m.warmupIOs || now-m.startT < m.warmupTime {
		m.lastWarm = now
		return
	}
	if !m.measureSet {
		// The measured window opens when warmup ends: at the warmup-time
		// offset, or at the last discarded completion, whichever is later.
		m.measureSet = true
		ws := m.startT + m.warmupTime
		if m.lastWarm > ws {
			ws = m.lastWarm
		}
		m.measureStart = ws
	}
	lat := now - start
	m.measured++
	m.bytes += int64(m.blockSize)
	m.res.All.Record(lat)
	if write {
		m.res.Write.Record(lat)
	} else {
		m.res.Read.Record(lat)
	}
	if m.res.Series != nil {
		if write {
			m.res.WriteSeries.Observe(now, lat.Micros())
		} else {
			m.res.Series.Observe(now, lat.Micros())
		}
	}
	if m.trace != nil {
		m.trace.Record(trace.Event{
			Issue:   start - m.startT,
			Write:   write,
			Offset:  offset,
			Len:     m.blockSize,
			Latency: lat,
		})
	}
}

// finish settles the result's counters and measurement window.
func (m *meter) finish() {
	m.res.IOs = m.measured
	m.res.Bytes = m.bytes
	wall := m.lastDone - m.measureStart
	if !m.measureSet || wall < 0 {
		wall = 0
	}
	m.res.Wall = wall
}

type runner struct {
	svc Service
	job Job
	ops opSource
	pr  *probe.Probe
	// Span kinds for the job's op classes: KGet/KPut on a keyed job,
	// KRead/KWrite on a block job.
	rdKind, wrKind probe.Kind

	issued       int
	completed    int
	writesSince  int // writes issued since the last fsync
	pendingSyncs int
	startT       sim.Time
	stopped      bool
	freeSlots    *ioSlot

	m   meter
	res Result
}

// ioSlot carries one in-flight I/O from issue to completion. Slots are
// recycled through the runner's free list and each binds its done
// callback once, so issuing an I/O allocates nothing in steady state.
type ioSlot struct {
	r      *runner
	seq    int
	write  bool
	offset int64
	start  sim.Time
	sp     *probe.Span
	done   func()
	next   *ioSlot
}

func (r *runner) getSlot() *ioSlot {
	s := r.freeSlots
	if s == nil {
		s = &ioSlot{r: r}
		s.done = s.complete
		return s
	}
	r.freeSlots = s.next
	s.next = nil
	return s
}

// complete recycles the slot before handing its I/O to onDone, whose
// next issue may take this very slot.
func (s *ioSlot) complete() {
	r := s.r
	seq, write, offset, start, sp := s.seq, s.write, s.offset, s.start, s.sp
	s.sp = nil
	s.next = r.freeSlots
	r.freeSlots = s
	r.onDone(seq, write, offset, start, sp)
}

func newRunner(svc Service, job Job) *runner {
	if job.QueueDepth <= 0 {
		job.QueueDepth = 1
	}
	if svc.Serial() && job.QueueDepth != 1 {
		panic("workload: synchronous stacks serve one I/O at a time")
	}
	if job.TotalIOs <= 0 && job.Duration <= 0 {
		panic("workload: job needs a stop condition (TotalIOs or Duration)")
	}
	r := &runner{
		svc: svc,
		job: job,
		ops: newOpSource(svc, &job.Spec, sim.NewRNG(job.Seed^0x9e3779b9)),
		pr:  probe.Get(svc.Engine()),
	}
	r.rdKind, r.wrKind = spanKinds(&job.Spec)
	r.res.Job = job
	if job.SeriesBucket > 0 {
		r.res.Series = metrics.NewSeries(job.SeriesBucket)
		r.res.WriteSeries = metrics.NewSeries(job.SeriesBucket)
	}
	return r
}

func (r *runner) start() {
	r.startT = r.svc.Engine().Now()
	r.m = meter{
		warmupIOs:  r.job.WarmupIOs,
		warmupTime: r.job.WarmupTime,
		blockSize:  r.job.BlockSize,
		startT:     r.startT,
		trace:      r.job.Trace,
		res:        &r.res,
	}
	for i := 0; i < r.job.QueueDepth; i++ {
		if !r.issueNext() {
			break
		}
	}
}

// wantMore reports whether another I/O should be issued.
func (r *runner) wantMore() bool {
	if r.stopped {
		return false
	}
	if r.job.TotalIOs > 0 && r.issued >= r.job.TotalIOs+r.job.WarmupIOs {
		return false
	}
	if r.job.Duration > 0 && r.svc.Engine().Now()-r.startT >= r.job.Duration {
		return false
	}
	return true
}

func (r *runner) issueNext() bool {
	// A due fsync takes the next slot before any further I/O, the way
	// fio's fsync=N interleaves the sync into the job's own stream.
	if r.pendingSyncs > 0 {
		r.pendingSyncs--
		start := r.svc.Engine().Now()
		r.res.Fsyncs++
		sp := r.pr.Start(probe.KFsync, 0, start)
		r.pr.SetSpan(sp)
		r.svc.Sync(func() { r.onSyncDone(start, sp) })
		return true
	}
	if !r.wantMore() {
		r.stopped = r.stopped || r.job.TotalIOs > 0 && r.issued >= r.job.TotalIOs+r.job.WarmupIOs
		return false
	}
	write, offset := r.ops.next()
	if write && r.job.SyncEvery > 0 {
		r.writesSince++
		if r.writesSince >= r.job.SyncEvery {
			r.writesSince = 0
			r.pendingSyncs++
		}
	}
	s := r.getSlot()
	s.seq, s.write, s.offset = r.issued, write, offset
	r.issued++
	s.start = r.svc.Engine().Now()
	kind := r.rdKind
	if write {
		kind = r.wrKind
	}
	s.sp = r.pr.Start(kind, 0, s.start)
	r.pr.SetSpan(s.sp)
	r.svc.Issue(write, offset, r.job.BlockSize, s.done)
	return true
}

func (r *runner) onSyncDone(start sim.Time, sp *probe.Span) {
	now := r.svc.Engine().Now()
	r.pr.End(sp, now)
	if r.m.measureSet || r.job.WarmupIOs == 0 && r.job.WarmupTime == 0 {
		r.res.Fsync.Record(now - start)
	}
	r.issueNext()
}

func (r *runner) onDone(seq int, write bool, offset int64, start sim.Time, sp *probe.Span) {
	r.completed++
	now := r.svc.Engine().Now()
	r.pr.End(sp, now)
	r.m.observe(seq, write, offset, start, now)
	r.issueNext()
}

func (r *runner) result() *Result {
	r.m.finish()
	if w, ok := r.svc.(WearReporter); ok {
		r.res.Wear = w.WearStats()
	}
	r.res.Breakdown = r.pr.Breakdown()
	return &r.res
}

// spanKinds maps a spec's op classes to span kinds: gets and puts on a
// keyed job, reads and writes on a block job.
func spanKinds(s *Spec) (rd, wr probe.Kind) {
	if s.Keyspace.Keys > 0 {
		return probe.KGet, probe.KPut
	}
	return probe.KRead, probe.KWrite
}
