// Package nvme models the NVMe queue-pair protocol between a host driver
// and an SSD: submission/completion rings with phase tags, doorbells, SQE
// fetch over PCIe, and MSI interrupt delivery (Section II-B2/II-B3 of the
// paper).
//
// The host-side storage stacks (packages kernel, spdk and uring) sit on
// top of a QueuePair; the device side drives a ssd.Device. The stacks
// that keep many commands in flight share one Ledger (host.go) for CID
// tracking, doorbells and batched completion delivery.
package nvme

import (
	"fmt"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Config sets the protocol timing parameters.
type Config struct {
	Depth            int      // entries per ring (real queues hold 64K)
	PCIeLatency      sim.Time // one-way posted-write/DMA latency
	FetchCost        sim.Time // device-side SQE fetch and decode
	InterruptLatency sim.Time // MSI delivery beyond the CQE write
}

// DefaultConfig returns the protocol timings used by both devices.
func DefaultConfig() Config {
	return Config{
		Depth:            1024,
		PCIeLatency:      300 * sim.Nanosecond,
		FetchCost:        200 * sim.Nanosecond,
		InterruptLatency: 600 * sim.Nanosecond,
	}
}

// LightConfig returns the paper's Section IV-C implication as a concrete
// protocol: "once the latency becomes shorter ... the rich queue and
// existing NVMe protocol specification are overkill; a future
// ULL-enabled system may require a lighter queue mechanism and simpler
// protocol, such as NCQ of SATA". The light queue is shallow (32 entries,
// NCQ-depth), carries compact command descriptors that decode in a
// fraction of the time, and signals completions without the full
// doorbell/CQE round trip.
func LightConfig() Config {
	return Config{
		Depth:            32,
		PCIeLatency:      300 * sim.Nanosecond, // the wire does not change
		FetchCost:        60 * sim.Nanosecond,  // compact fixed-format slot
		InterruptLatency: 250 * sim.Nanosecond, // direct completion signal
	}
}

// CQE is a completion-queue entry.
type CQE struct {
	CID   uint16
	Phase bool
}

// QueuePair is one SQ/CQ pair bound to a device. It is the only channel
// through which host stacks talk to the SSD.
type QueuePair struct {
	cfg Config
	eng *sim.Engine
	dev *ssd.Device

	cq        []CQE
	cqTail    int  // device write position
	cqHead    int  // host read position
	devPhase  bool // phase the device writes next
	hostPhase bool // phase the host expects next

	interrupts bool
	msi        func()
	visible    func()

	inflight int
	freeCmds *cmd         // free list of recycled command contexts
	pr       *probe.Probe // nil unless observability is enabled
	// Statistics.
	Submitted uint64
	Completed uint64
	MSIs      uint64
}

// cmd is the pooled per-command context: one object carries a command
// from doorbell to CQE, with its step callbacks bound once at creation so
// the hot path schedules no closures and allocates nothing in steady
// state (the simulator is single-goroutine, so a plain free list works).
type cmd struct {
	qp   *QueuePair
	cid  uint16
	req  ssd.Request
	next *cmd

	fetchFn func() // SQE arrived at the device: submit to the SSD
	postFn  func() // CQE reached host memory: publish and recycle
}

// getCmd takes a command context from the free list, binding its
// completion closures once on first allocation.
//
//ullvet:pool get
func (qp *QueuePair) getCmd() *cmd {
	c := qp.freeCmds
	if c == nil {
		c = &cmd{qp: qp}
		c.fetchFn = func() { c.qp.dev.Submit(&c.req) }
		c.req.Done = func(end sim.Time) {
			c.req.Span.To(probe.PDevice, end)
			c.qp.eng.After(c.qp.cfg.PCIeLatency, c.postFn)
		}
		c.postFn = c.post
		return c
	}
	qp.freeCmds = c.next
	c.next = nil
	return c
}

// putCmd returns a command context to the free list.
//
//ullvet:pool put
func (qp *QueuePair) putCmd(c *cmd) {
	c.next = qp.freeCmds
	qp.freeCmds = c
}

// New returns a queue pair bound to dev.
func New(eng *sim.Engine, dev *ssd.Device, cfg Config) *QueuePair {
	if cfg.Depth <= 0 {
		panic("nvme: queue depth must be positive")
	}
	qp := &QueuePair{
		cfg: cfg,
		eng: eng,
		dev: dev,
		cq:  make([]CQE, cfg.Depth),
		// Real controllers start with phase 1 so that an all-zero ring
		// never looks complete.
		devPhase:  true,
		hostPhase: true,
		pr:        probe.Get(eng),
	}
	return qp
}

// EnableInterrupts switches MSI delivery on or off (polling stacks turn
// it off; SPDK cannot handle ISRs at all).
func (qp *QueuePair) EnableInterrupts(on bool) { qp.interrupts = on }

// SetMSIHandler installs the host interrupt service entry point.
func (qp *QueuePair) SetMSIHandler(fn func()) { qp.msi = fn }

// SetCompletionHook installs a callback that fires the instant a CQE
// becomes host-visible, independent of interrupt mode. Polling stacks use
// it to compute when their ring walk would have observed the entry; it is
// a simulator device, not a protocol feature.
func (qp *QueuePair) SetCompletionHook(fn func()) { qp.visible = fn }

// Outstanding reports commands submitted but not yet reaped by the host.
func (qp *QueuePair) Outstanding() int { return qp.inflight }

// Device returns the bound device.
func (qp *QueuePair) Device() *ssd.Device { return qp.dev }

// Submit enqueues a command. The caller has already paid its host-side
// submission costs (SQE build, doorbell MMIO); Submit models the fabric
// and device side: doorbell propagation, SQE fetch, execution, CQE post,
// and optional MSI.
func (qp *QueuePair) Submit(write bool, offset int64, length int, cid uint16) {
	if qp.inflight >= qp.cfg.Depth {
		panic(fmt.Sprintf("nvme: queue overflow (depth %d)", qp.cfg.Depth))
	}
	qp.inflight++
	qp.Submitted++
	c := qp.getCmd()
	c.cid = cid
	c.req.Write = write
	c.req.Op = ssd.OpRead // recycled contexts may carry a stale Flush op
	c.req.Offset = offset
	c.req.Len = length
	c.req.Span = qp.pr.TakeSpan()
	c.req.Span.To(probe.PSubmit, qp.eng.Now())
	qp.eng.After(qp.cfg.PCIeLatency+qp.cfg.FetchCost, c.fetchFn)
}

// SubmitFlush enqueues an NVMe Flush command: no data transfer, the
// device completes it once every buffered write has reached media. Like
// Submit, the caller has already paid its host-side submission costs.
func (qp *QueuePair) SubmitFlush(cid uint16) {
	if qp.inflight >= qp.cfg.Depth {
		panic(fmt.Sprintf("nvme: queue overflow (depth %d)", qp.cfg.Depth))
	}
	qp.inflight++
	qp.Submitted++
	c := qp.getCmd()
	c.cid = cid
	c.req.Write = false
	c.req.Op = ssd.OpFlush
	c.req.Offset = 0
	c.req.Len = 0
	c.req.Span = qp.pr.TakeSpan()
	c.req.Span.To(probe.PSubmit, qp.eng.Now())
	qp.eng.After(qp.cfg.PCIeLatency+qp.cfg.FetchCost, c.fetchFn)
}

// post runs when the CQE reaches host memory (one PCIe latency after the
// device completed): it publishes the entry, recycles the command
// context, and delivers the visibility hook and optional MSI.
func (c *cmd) post() {
	qp := c.qp
	cid := c.cid
	qp.putCmd(c)
	qp.cq[qp.cqTail] = CQE{CID: cid, Phase: qp.devPhase}
	qp.cqTail++
	if qp.cqTail == qp.cfg.Depth {
		qp.cqTail = 0
		qp.devPhase = !qp.devPhase
	}
	if qp.visible != nil {
		qp.visible()
	}
	if qp.interrupts && qp.msi != nil {
		qp.MSIs++
		qp.eng.After(qp.cfg.InterruptLatency, qp.msi)
	}
}

// Poll checks the CQ head entry's phase tag, consuming and returning the
// completion when one is visible. This is the ring walk that nvme_poll()
// (kernel) and nvme_pcie_qpair_process_completions() (SPDK) perform; the
// caller charges the corresponding CPU and memory-instruction costs.
func (qp *QueuePair) Poll() (cid uint16, ok bool) {
	e := qp.cq[qp.cqHead]
	if e.Phase != qp.hostPhase {
		return 0, false
	}
	// Consumed entries are left in place: their stale phase tag no longer
	// matches the expectation of the next pass, exactly as in real NVMe.
	qp.cqHead++
	if qp.cqHead == qp.cfg.Depth {
		qp.cqHead = 0
		qp.hostPhase = !qp.hostPhase
	}
	qp.inflight--
	qp.Completed++
	return e.CID, true
}
