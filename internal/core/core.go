// Package core composes the full system under test: a simulated SSD
// behind an NVMe queue pair, driven by one of the host storage stacks
// (kernel sync with a chosen completion method, kernel async/libaio,
// SPDK, or io_uring with a chosen completion mode), with CPU, power, and
// latency instrumentation — the simulated equivalent of the paper's
// testbed (Section III).
package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/spdk"
	"repro/internal/ssd"
	"repro/internal/uring"
)

// StackKind selects the host I/O path.
type StackKind int

// The host stacks the paper evaluates.
const (
	// KernelSync is the pvsync2 path; its completion method is chosen by
	// Config.Mode.
	KernelSync StackKind = iota
	// KernelAsync is the libaio path (interrupt completion, queue depth
	// managed by the submitter).
	KernelAsync
	// SPDK is the kernel-bypass userspace path (poll-only).
	SPDK
	// IOUring is the io_uring path (batched ring submission; completion
	// mode chosen by Stack.Uring / Config.Uring).
	IOUring
)

func (k StackKind) String() string {
	switch k {
	case KernelSync:
		return "pvsync2"
	case KernelAsync:
		return "libaio"
	case SPDK:
		return "spdk"
	case IOUring:
		return "io_uring"
	default:
		return fmt.Sprintf("StackKind(%d)", int(k))
	}
}

// Target is the submission interface every stack exposes.
type Target interface {
	Submit(write bool, offset int64, length int, done func())
}

// Flusher is the optional Target extension for durability barriers: a
// device flush (NVMe Flush) driven through the stack's own submission
// and completion machinery. Every built-in stack and volume implements
// it — the kernel stacks, SPDK, io_uring, and volumes (which fan the
// barrier out to every member).
type Flusher interface {
	Flush(done func())
}

// Syncer is the optional Target extension for full fsync(2) semantics:
// write back dirty cached state, run the journal commit protocol, and
// barrier the device. The filesystem layer implements it; bare stacks
// only implement Flusher (on a raw block device fsync is just a flush).
type Syncer interface {
	Sync(done func())
}

// Config assembles a one-device system: the shorthand that lowers onto
// the topology graph (see topology.go) with a single Stack over a
// single Queue.
type Config struct {
	Device ssd.Config
	NVMe   nvme.Config
	Stack  StackKind
	Mode   kernel.Mode  // completion method for KernelSync
	Kernel kernel.Costs // zero value -> DefaultCosts unless KernelSet
	SPDK   spdk.Costs   // zero value -> DefaultCosts unless SPDKSet
	// Uring configures the IOUring stack; its zero value means interrupt
	// completion with the calibrated default costs (zero is the default,
	// not a sentinel — no presence flag needed).
	Uring uring.Config
	// Cores is the host core count (0 or 1 = the legacy single
	// accounting core, no arbitration).
	Cores int

	// KernelSet and SPDKSet mark the cost tables as authoritative even
	// when they are the zero value, mirroring Options.Seed/SeedSet: the
	// zero table is a valid (free) cost model, not a sentinel. Any
	// nonzero field in a table also counts as presence, so a table with
	// deliberately-zero poll costs is never silently replaced.
	KernelSet bool
	SPDKSet   bool

	// Precondition is the fraction of the LPN space instantly mapped
	// before the run (sequential layout), so reads touch real media and
	// the free-block population matches an aged device.
	Precondition float64
}

// DefaultConfig returns a system on the given device with the kernel
// sync stack and interrupt completion.
func DefaultConfig(dev ssd.Config) Config {
	return Config{
		Device: dev,
		NVMe:   nvme.DefaultConfig(),
		Stack:  KernelSync,
		Mode:   kernel.Interrupt,
		Kernel: kernel.DefaultCosts(),
		SPDK:   spdk.DefaultCosts(),
	}
}

// System is a fully wired one-device host + device: the shorthand view
// over a single-leaf topology graph.
type System struct {
	Cfg  Config
	Eng  *sim.Engine
	Dev  *ssd.Device
	QP   *nvme.QueuePair
	Core *cpu.Core

	graph *Graph
}

// NewSystem builds and wires a one-device system by lowering the config
// onto the topology graph. Output is bit-exact with the historical
// direct wiring: the lowering performs the same constructions in the
// same order with the same seeds.
func NewSystem(cfg Config) *System {
	if cfg.NVMe.Depth == 0 {
		cfg.NVMe = nvme.DefaultConfig()
	}
	// Presence, not a magic field, decides defaulting: the old
	// PollIter()==0 sentinel silently replaced deliberately-zero cost
	// tables (any table whose poll stages were free), the same bug the
	// Seed/SeedSet fix removed from Options.
	if !cfg.KernelSet && cfg.Kernel == (kernel.Costs{}) {
		cfg.Kernel = kernel.DefaultCosts()
	}
	if !cfg.SPDKSet && cfg.SPDK == (spdk.Costs{}) {
		cfg.SPDK = spdk.DefaultCosts()
	}
	g := Build(Topology{
		Root: Stack{
			Kind:   cfg.Stack,
			Mode:   cfg.Mode,
			Kernel: &cfg.Kernel,
			SPDK:   &cfg.SPDK,
			Uring:  &cfg.Uring,
			Queue:  Queue{Device: cfg.Device, NVMe: cfg.NVMe},
		},
		Cores:        cfg.Cores,
		Precondition: cfg.Precondition,
	})
	return &System{
		Cfg:   cfg,
		Eng:   g.eng,
		Dev:   g.devices[0],
		QP:    g.queues[0],
		Core:  g.cpu,
		graph: g,
	}
}

// Submit issues one I/O through the configured stack.
func (s *System) Submit(write bool, offset int64, length int, done func()) {
	s.graph.Submit(write, offset, length, done)
}

// Sync issues one durability barrier (a device flush through the
// stack): fsync on a raw block device.
func (s *System) Sync(done func()) {
	s.graph.Sync(done)
}

// Engine returns the system's event engine.
func (s *System) Engine() *sim.Engine { return s.Eng }

// Serial reports whether the stack serves one I/O at a time (pvsync2).
func (s *System) Serial() bool { return s.Cfg.Stack == KernelSync }

// Graph returns the underlying topology graph.
func (s *System) Graph() *Graph { return s.graph }

// Probe returns the graph's observability probe; nil when disabled.
func (s *System) Probe() *probe.Probe { return s.graph.Probe() }

// ExportedBytes reports the device's host-visible capacity.
func (s *System) ExportedBytes() int64 { return s.Dev.ExportedBytes() }

// WearStats snapshots the device's media wear (one-element slice, for
// symmetry with Graph.WearStats on multi-device topologies).
func (s *System) WearStats() []ssd.WearReport { return s.graph.WearStats() }

// Finalize settles deferred accounting (the SPDK and io_uring SQPOLL
// continuous poll spins). Call once after the run's events have drained.
func (s *System) Finalize() { s.graph.Finalize() }
