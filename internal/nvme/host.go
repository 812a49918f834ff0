package nvme

import (
	"fmt"

	"repro/internal/probe"
	"repro/internal/sim"
)

// Cmd is one host command on its way to the doorbell: a data transfer,
// or a Flush barrier when Flush is set (Write, Offset and Length are
// then ignored).
type Cmd struct {
	Write  bool
	Flush  bool
	Offset int64
	Length int
	CID    uint16
	Span   *probe.Span
}

// Ledger is the host-side bookkeeping of a queue pair driven with many
// commands in flight — what the libaio, SPDK and io_uring stacks share.
// It owns three pieces:
//
//   - the CID table: a direct-mapped slot per CID (no hashing, no
//     collisions) holding each outstanding command's completion
//     callback. CIDs are issued in order from 0, so the table grows
//     with the highest CID issued and reaches the whole uint16 space
//     only if the stack issues that many commands;
//   - the doorbell: a pooled context that carries one command from the
//     stack's submission path to Submit or SubmitFlush at a chosen time;
//   - the delivery batch: every CQE reaped in one pass rides the stack's
//     completion delay as a single event, its callbacks run in reap
//     order (the order one event per CQE would have fired them in).
//
// The pooled contexts never leave the ledger. Costs are the stack's
// business: the ledger charges nothing and adds no delay of its own.
type Ledger struct {
	eng  *sim.Engine
	qp   *QueuePair
	pr   *probe.Probe
	name string // owning stack, for panic messages

	pending []func()
	nOut    int
	nextCID uint16

	open      *batch // filled by the current reap pass, nil between passes
	freeBatch *batch
	freeBells *doorbell
	deliverFn func(any) // bound once: run one delivered batch
}

// batch carries the completion callbacks of one reap pass.
type batch struct {
	dones []func()
	next  *batch
}

// doorbell carries one command across the host submission delay; fn is
// bound once and recycles the context right after ringing (the queue
// pair copies everything it needs synchronously).
type doorbell struct {
	l    *Ledger
	cmd  Cmd
	fn   func()
	next *doorbell
}

// NewLedger returns the ledger of a stack named name driving qp.
func NewLedger(eng *sim.Engine, qp *QueuePair, name string) *Ledger {
	l := &Ledger{
		eng:  eng,
		qp:   qp,
		pr:   probe.Get(eng),
		name: name,
	}
	l.deliverFn = l.deliver
	return l
}

// Track assigns the next CID to a new command whose completion runs
// done. A CID still outstanding after the 16-bit space wraps panics.
//
//ullvet:noalloc bench=BenchmarkSimulatorThroughput
func (l *Ledger) Track(done func()) uint16 {
	cid := l.nextCID
	l.nextCID++
	if int(cid) == len(l.pending) {
		l.growCIDs()
	}
	if l.pending[cid] != nil {
		panic(fmt.Sprintf("%s: CID %d reused while outstanding", l.name, cid))
	}
	l.pending[cid] = done
	l.nOut++
	return cid
}

// growCIDs doubles the CID table, up to the whole uint16 space, once
// the next CID to issue falls past its end.
func (l *Ledger) growCIDs() {
	p := make([]func(), min(max(2*len(l.pending), 64), 1<<16))
	copy(p, l.pending)
	l.pending = p
}

// Ring schedules c's doorbell at time at: its span becomes current and
// the command enters the queue pair.
//
//ullvet:noalloc bench=BenchmarkSimulatorThroughput
func (l *Ledger) Ring(at sim.Time, c Cmd) {
	d := l.getBell()
	d.cmd = c
	l.eng.At(at, d.fn)
}

// Reap consumes the next visible CQE into the open delivery batch and
// reports whether there was one. A CQE for a CID that is not
// outstanding panics.
//
//ullvet:noalloc bench=BenchmarkSimulatorThroughput
func (l *Ledger) Reap() bool {
	cid, ok := l.qp.Poll()
	if !ok {
		return false
	}
	var done func()
	if int(cid) < len(l.pending) {
		done = l.pending[cid]
	}
	if done == nil {
		panic(fmt.Sprintf("%s: completion for unknown CID %d", l.name, cid))
	}
	l.pending[cid] = nil
	l.nOut--
	if l.open == nil {
		//ullvet:retained filled until Deliver hands it to the engine; deliver puts it back
		l.open = l.getBatch()
	}
	l.open.dones = append(l.open.dones, done)
	return true
}

// Deliver closes the open batch and runs its callbacks, in reap order,
// after d. It is a no-op when nothing was reaped.
//
//ullvet:noalloc bench=BenchmarkSimulatorThroughput
func (l *Ledger) Deliver(d sim.Time) {
	b := l.open
	if b == nil {
		return
	}
	l.open = nil
	l.eng.AfterArg(d, l.deliverFn, b)
}

// Outstanding reports tracked commands not yet reaped.
func (l *Ledger) Outstanding() int { return l.nOut }

func (l *Ledger) deliver(arg any) {
	b := arg.(*batch)
	for i := 0; i < len(b.dones); i++ {
		fn := b.dones[i]
		b.dones[i] = nil
		fn()
	}
	l.putBatch(b)
}

// getBatch takes a delivery batch from the free list.
//
//ullvet:pool get
func (l *Ledger) getBatch() *batch {
	b := l.freeBatch
	if b == nil {
		return &batch{}
	}
	l.freeBatch = b.next
	b.next = nil
	return b
}

// putBatch empties a delivered batch and returns it to the free list.
//
//ullvet:pool put
func (l *Ledger) putBatch(b *batch) {
	b.dones = b.dones[:0]
	b.next = l.freeBatch
	l.freeBatch = b
}

// getBell takes a doorbell context from the free list; the ring closure
// bound on first allocation puts it back itself.
//
//ullvet:pool get
func (l *Ledger) getBell() *doorbell {
	d := l.freeBells
	if d == nil {
		d = &doorbell{l: l}
		d.fn = d.ring
		return d
	}
	l.freeBells = d.next
	d.next = nil
	return d
}

// ring submits the carried command and recycles the context.
func (d *doorbell) ring() {
	l := d.l
	c := &d.cmd
	l.pr.SetSpan(c.Span)
	if c.Flush {
		l.qp.SubmitFlush(c.CID)
	} else {
		l.qp.Submit(c.Write, c.Offset, c.Length, c.CID)
	}
	c.Span = nil
	d.next = l.freeBells
	l.freeBells = d
}

// PollBoundary returns when a poll loop iterating every iter (on the
// grid 0, iter, 2·iter, ...) observes a completion it can see no
// earlier than from: the first boundary at or after from that is also
// strictly after now (from >= now). A zero-cost loop (iter <= 0) has no
// grid: it observes at from itself.
func PollBoundary(now, from, iter sim.Time) sim.Time {
	if iter <= 0 {
		return from
	}
	b := ((from + iter - 1) / iter) * iter
	if b <= now {
		b += iter
	}
	return b
}

// PollIters reports how many whole iterations of period iter fit in
// span; a zero-cost loop (iter <= 0) runs none worth charging.
func PollIters(span, iter sim.Time) int64 {
	if iter <= 0 {
		return 0
	}
	return int64(span / iter)
}
