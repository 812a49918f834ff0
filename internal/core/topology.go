// Topology: system composition as a layer graph. The paper's whole
// argument (Sections III-V) is that ULL performance is decided by how
// host-stack layers compose over the device; this file turns that
// layering into an explicit, composable API. Every layer lowers to the
// one universal contract — Target — so a workload engine drives a
// single device behind SPDK, a RAID-0 stripe of Z-SSDs behind libaio,
// or a Z-SSD write-absorbing tier in front of a conventional NVMe SSD
// through exactly the same interface.
//
// The graph has four layer kinds:
//
//   - Queue: one NVMe queue pair bound to one simulated SSD — the
//     bottom of every path (it is driven by a Stack, not a Target
//     itself).
//   - Stack: a host I/O path (kernel sync with a completion method,
//     kernel async/libaio, SPDK, or io_uring with a completion mode)
//     over one Queue; the leaf Target.
//   - Volume: a router composing N child layers under one Target —
//     Striped, Concat, or Tiered (see volume.go).
//   - FS: a host filesystem + page cache over one child layer —
//     buffered I/O, write-back, readahead, journaled fsync
//     (internal/fs). With no cache and no journal it lowers to a
//     bit-exact passthrough of its child.
//
// Build lowers a Topology into a Graph, the Target-rooted runnable
// system. A one-device system is the smallest topology:
//
//	Build(Topology{Root: Stack{Kind: KernelSync, Mode: kernel.Poll,
//		Queue: Queue{Device: ssd.ZSSD()}}, Precondition: 1})
package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/spdk"
	"repro/internal/ssd"
	"repro/internal/uring"
)

// Host is the contract the workload engines drive: any Target-rooted
// system, such as a built topology Graph.
type Host interface {
	Target
	// Engine returns the event engine the system schedules on.
	Engine() *sim.Engine
	// ExportedBytes reports the host-visible capacity of the root.
	ExportedBytes() int64
	// Serial reports whether the root serves one I/O at a time (a bare
	// pvsync2 stack); workload engines clamp concurrency to 1.
	Serial() bool
	// Sync runs one durability barrier against the root: full fsync
	// semantics when the root is a filesystem layer, a bare device
	// flush otherwise.
	Sync(done func())
	// Finalize settles deferred accounting (the SPDK and io_uring SQPOLL
	// continuous poll spins) once the run's events have drained.
	Finalize()
}

// built is the result of lowering one layer: its Target plus the
// properties the layers above (and the workload engines) need.
type built struct {
	target   Target
	exported int64
	serial   bool
}

// Layer is one node of a topology graph: anything that lowers itself
// into a Target wired onto the build's engine and CPU core. The layer
// set is closed — Stack, Volume and FS are the composable nodes, Queue
// the device pairing a Stack drives.
type Layer interface {
	lower(g *Graph) built
}

// Queue is the bottom layer: one NVMe queue pair bound to one device.
//
// Members of one graph that share a device seed are decorrelated at
// build time (the build ordinal is mixed in), so a volume of
// identically configured devices does not draw identical firmware
// jitter on every member. Explicitly distinct seeds are honored as
// given, and the first device always keeps its configured seed.
type Queue struct {
	Device ssd.Config
	// NVMe is the queue-pair protocol config; the zero value (Depth 0)
	// means nvme.DefaultConfig.
	NVMe nvme.Config
}

// lower builds the device and its queue pair, applying the duplicate-
// seed decorrelation documented on Queue.
func (q Queue) lower(g *Graph) *nvme.QueuePair {
	ncfg := q.NVMe
	if ncfg.Depth == 0 {
		ncfg = nvme.DefaultConfig()
	}
	dcfg := q.Device
	for mix := uint64(len(g.devices)); g.seeds[dcfg.Seed]; mix++ {
		dcfg.Seed ^= 0x9e3779b97f4a7c15 * mix
	}
	g.seeds[dcfg.Seed] = true
	dev := ssd.NewDevice(dcfg, g.eng)
	if g.pre > 0 {
		dev.Precondition(g.pre)
	}
	qp := nvme.New(g.eng, dev, ncfg)
	g.devices = append(g.devices, dev)
	g.queues = append(g.queues, qp)
	return qp
}

// Stack is the host I/O path layer: one stack instance driving one
// Queue. It is the leaf Target of every topology.
type Stack struct {
	Kind StackKind
	Mode kernel.Mode // completion method for KernelSync
	// Kernel, SPDK, and Uring override the stack cost/mode tables; nil
	// means the calibrated defaults. A pointer carries presence, so a
	// deliberately-zero table is honored, never silently replaced.
	Kernel *kernel.Costs
	SPDK   *spdk.Costs
	Uring  *uring.Config
	// Core pins the stack to a specific core (1-based); 0 assigns
	// round-robin over the topology's unpinned cores. Ignored by a
	// one-core (legacy) topology.
	Core  int
	Queue Queue
}

func (s Stack) lower(g *Graph) built {
	qp := s.Queue.lower(g)
	kc := kernel.DefaultCosts()
	if s.Kernel != nil {
		kc = *s.Kernel
	}
	proc := g.assignProc(s.Core)
	var t Target
	switch s.Kind {
	case KernelSync:
		t = kernel.NewSyncStack(g.eng, qp, proc, kc, s.Mode)
	case KernelAsync:
		t = kernel.NewAsyncStack(g.eng, qp, proc, kc)
	case SPDK:
		sc := spdk.DefaultCosts()
		if s.SPDK != nil {
			sc = *s.SPDK
		}
		st := spdk.NewStack(g.eng, qp, proc, sc)
		g.spdks = append(g.spdks, st)
		t = st
	case IOUring:
		var ucfg uring.Config
		if s.Uring != nil {
			ucfg = *s.Uring
		}
		var sqProc *cpu.Proc
		if ucfg.Mode == uring.SQPoll && g.cores.Arbitrating() {
			// The SQPOLL kernel thread draws (and pins) its own core.
			sqProc = g.assignProc(0)
		}
		st := uring.New(g.eng, qp, proc, sqProc, ucfg)
		g.urings = append(g.urings, st)
		t = st
	default:
		panic(fmt.Sprintf("core: unknown stack kind %d", s.Kind))
	}
	return built{target: t, exported: qp.Device().ExportedBytes(), serial: s.Kind == KernelSync}
}

// FS is the filesystem + page-cache layer: buffered reads and
// write-back buffered writes over the child's block space, with
// journaled fsync (see internal/fs). Any child that can flush composes
// under it — a Stack or a Volume. A Passthrough config (no cache, no
// journal) lowers to the child itself, bit-exactly.
type FS struct {
	Config fs.Config
	Child  Layer
}

func (f FS) lower(g *Graph) built {
	if f.Child == nil {
		panic("core: fs layer needs a child layer")
	}
	b := f.Child.lower(g)
	if f.Config.Passthrough() {
		return b
	}
	be, ok := b.target.(fs.Backend)
	if !ok {
		panic("core: fs child target cannot flush")
	}
	m := fs.New(g.eng, g.cpu, be, b.exported, b.serial, f.Config)
	g.fss = append(g.fss, m)
	// The cache absorbs concurrency above a serial child (the FS gate
	// serializes below), so the composed root is never serial.
	return built{target: m, exported: m.ExportedBytes(), serial: false}
}

// Topology describes a layer graph rooted at a single Target.
type Topology struct {
	Root Layer
	// Cores is the host core count. 0 or 1 builds the legacy single
	// accounting core (no arbitration, bit-exact with all historical
	// output); more cores make the CPU a contended resource: stacks are
	// assigned round-robin (or by Stack.Core), busy-polling reactors pin
	// their core, and submission/completion work queues behind whatever
	// its core is doing.
	Cores int
	// Precondition is the fraction of every device's LPN space instantly
	// mapped before the run (sequential layout), so reads touch real
	// media and the free-block population matches an aged device.
	Precondition float64
}

// Graph is a built topology: one Target root over any number of stacks
// and devices, sharing one event engine and one core set (one core by
// default — the legacy aggregate accounting view). It satisfies Host,
// so the workload engines drive one device and a volume of many alike.
type Graph struct {
	eng      *sim.Engine
	cores    *cpu.CoreSet
	cpu      *cpu.Core // core 0: the legacy accounting view (FS charges here)
	nextCore int       // round-robin stack-to-core assignment cursor
	pre      float64

	root    built
	devices []*ssd.Device
	queues  []*nvme.QueuePair
	spdks   []*spdk.Stack
	urings  []*uring.Stack
	volumes []*volume
	fss     []*fs.FS
	seeds   map[uint64]bool // configured device seeds, for decorrelation
}

// Build lowers a topology into its runnable Graph.
func Build(t Topology) *Graph {
	if t.Root == nil {
		panic("core: topology needs a root layer")
	}
	cores := cpu.NewCoreSet(t.Cores)
	g := &Graph{eng: sim.NewEngine(), cores: cores, cpu: cores.Core(0),
		pre: t.Precondition, seeds: make(map[uint64]bool)}
	// Attach the observability probe (from the process-wide default
	// config) before lowering, so every layer constructor can cache it.
	// The probe only observes: it schedules no events and draws no
	// randomness, so output is byte-identical with and without it.
	probe.Attach(g.eng, probe.New(probe.Default()))
	g.root = t.Root.lower(g)
	g.registerGauges()
	return g
}

// registerGauges points the probe's time-series sampler at the graph's
// observable state, in lowering order (deterministic column order).
func (g *Graph) registerGauges() {
	p := probe.Get(g.eng)
	if p == nil {
		return
	}
	g.cores.RegisterGauges(p.Gauge)
	for i, qp := range g.queues {
		qp := qp
		p.Gauge(fmt.Sprintf("queue%d.inflight", i), func() float64 { return float64(qp.Outstanding()) })
	}
	for i, m := range g.fss {
		m := m
		p.Gauge(fmt.Sprintf("fs%d.dirty_ratio", i), m.DirtyRatio)
		p.Gauge(fmt.Sprintf("fs%d.cache_hit_rate", i), m.CacheHitRate)
	}
}

// Probe returns the graph's observability probe, or nil when tracing
// is disabled.
func (g *Graph) Probe() *probe.Probe { return probe.Get(g.eng) }

// assignProc picks the core a stack executes on: the explicit 1-based
// choice when given, otherwise round-robin over unpinned cores (pinned
// cores belong to their reactors); a fully pinned set falls back to
// plain round-robin.
func (g *Graph) assignProc(explicit int) *cpu.Proc {
	n := g.cores.N()
	if explicit > 0 {
		return g.cores.Proc((explicit - 1) % n)
	}
	for i := 0; i < n; i++ {
		id := g.nextCore % n
		g.nextCore++
		if !g.cores.Pinned(id) {
			return g.cores.Proc(id)
		}
	}
	id := g.nextCore % n
	g.nextCore++
	return g.cores.Proc(id)
}

// Submit issues one I/O into the root layer.
func (g *Graph) Submit(write bool, offset int64, length int, done func()) {
	g.root.target.Submit(write, offset, length, done)
}

// Sync runs one durability barrier against the root: fsync semantics
// when the root is a filesystem layer (writeback + journal commit +
// device flush), a bare flush through the stack otherwise — which is
// exactly what fsync on a raw block device does.
func (g *Graph) Sync(done func()) {
	switch t := g.root.target.(type) {
	case Syncer:
		t.Sync(done)
	case Flusher:
		t.Flush(done)
	default:
		panic("core: root target supports no durability barrier")
	}
}

// Engine returns the shared event engine.
func (g *Graph) Engine() *sim.Engine { return g.eng }

// CPU returns the aggregate accounting view over the whole core set. On
// a one-core (legacy) topology this is the core itself, bit-exact with
// the historical single-core model; on larger sets it is a fresh summed
// snapshot — use CoreSet for the per-core split.
func (g *Graph) CPU() *cpu.Core { return g.cores.Aggregate() }

// CoreSet returns the topology's cores: per-core accounting,
// utilization, arbitration counters, and the BusyCores denominator of
// IOPS-per-core.
func (g *Graph) CoreSet() *cpu.CoreSet { return g.cores }

// ExportedBytes reports the root layer's host-visible capacity.
func (g *Graph) ExportedBytes() int64 { return g.root.exported }

// Serial reports whether the root serves one I/O at a time. Volumes
// are never serial: they queue segments per busy synchronous leaf, the
// way one submitting thread per member device would.
func (g *Graph) Serial() bool { return g.root.serial }

// Precondition reports the fraction applied to every device at build.
func (g *Graph) Precondition() float64 { return g.pre }

// Devices returns every device in the graph, in lowering order
// (depth-first, left to right).
func (g *Graph) Devices() []*ssd.Device { return g.devices }

// QueuePairs returns every NVMe queue pair, in lowering order.
func (g *Graph) QueuePairs() []*nvme.QueuePair { return g.queues }

// VolumeStats snapshots every volume layer's counters, in lowering
// order (children before parents; the root volume, if any, is last).
func (g *Graph) VolumeStats() []VolumeStats {
	out := make([]VolumeStats, len(g.volumes))
	for i, v := range g.volumes {
		out[i] = v.stats
		if v.tier != nil {
			out[i].FastChunks = v.tier.slots
			out[i].FastInUse = v.tier.used()
		}
	}
	return out
}

// FSStats snapshots every filesystem layer's counters, in lowering
// order. Passthrough FS layers lower to their child and do not appear.
func (g *Graph) FSStats() []fs.Stats {
	out := make([]fs.Stats, len(g.fss))
	for i, m := range g.fss {
		out[i] = m.Stats()
	}
	return out
}

// WearStats snapshots every device's media wear — erase-count spread
// and the host/GC program split behind write amplification — in
// lowering order, matching Devices().
func (g *Graph) WearStats() []ssd.WearReport {
	out := make([]ssd.WearReport, len(g.devices))
	for i, d := range g.devices {
		out[i] = d.WearReport()
	}
	return out
}

// Finalize settles deferred accounting — the SPDK continuous poll spin
// and the io_uring SQPOLL thread spin — on every stack in the graph.
// Call once after the run's events have drained.
func (g *Graph) Finalize() {
	for _, st := range g.spdks {
		st.Finalize(g.eng.Now())
	}
	for _, st := range g.urings {
		st.Finalize(g.eng.Now())
	}
}
