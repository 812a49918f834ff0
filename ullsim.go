// Package repro is ullsim: a discrete-event full-system simulator that
// reproduces "Faster than Flash: An In-Depth Study of System Challenges
// for Emerging Ultra-Low Latency SSDs" (Koh et al., IISWC 2019).
//
// The library models the paper's entire testbed in software: Z-NAND and
// conventional 3D-NAND flash dies, the two SSDs built on them (the Z-SSD
// prototype with super-channels, split-DMA and program suspend/resume,
// and an Intel-750-class NVMe SSD with a DRAM write-back cache), the NVMe
// queue-pair protocol, the Linux storage stack with interrupt, polled and
// hybrid-polled I/O completion, an io_uring-class ring stack (batched
// submission, IOPOLL, adaptive hybrid polling, SQPOLL), the SPDK
// kernel-bypass stack, an ext4 + NBD server-client system, and a
// FIO-like workload engine — plus an experiment harness that regenerates
// every table and figure of the paper's evaluation.
//
// CPU cores are a contended resource: size Topology.Cores above one
// and stacks arbitrate for cores — work queues behind busy cores,
// interrupt wakeups pay a migration penalty, and busy-polling pins
// cores outright. The default single core keeps
// the historical accounting-only model, bit-exactly.
//
// Quick start — one device behind one stack, the smallest topology:
//
//	sys := repro.BuildTopology(repro.Topology{
//		Root:         repro.StackOn(repro.KernelSync, repro.Poll, repro.ZSSD()),
//		Precondition: 1.0,
//	})
//	res := repro.RunJob(sys, repro.Job{Spec: repro.Spec{
//		Pattern:   repro.RandRead,
//		BlockSize: 4096,
//		TotalIOs:  100000,
//	}})
//	fmt.Println(res.All.Summarize())
//
// Every system is a layer graph lowered onto one Target contract, so
// multi-device volumes run through the same workload engines as a
// single device. A RAID-0 stripe of four Z-SSDs behind SPDK:
//
//	vol := repro.BuildTopology(repro.Topology{
//		Root: repro.StripedVolume(64<<10,
//			repro.StackOn(repro.SPDK, 0, repro.ZSSD()),
//			repro.StackOn(repro.SPDK, 0, repro.ZSSD()),
//			repro.StackOn(repro.SPDK, 0, repro.ZSSD()),
//			repro.StackOn(repro.SPDK, 0, repro.ZSSD()),
//		),
//		Precondition: 0.9,
//	})
//	res = repro.RunJob(vol, repro.Job{
//		Spec:       repro.Spec{Pattern: repro.RandRead, BlockSize: 4096, TotalIOs: 100000},
//		QueueDepth: 8,
//	})
//
// Or a Z-SSD write-absorbing tier in front of a conventional NVMe SSD,
// with watermark-driven migration:
//
//	tier := repro.BuildTopology(repro.Topology{
//		Root: repro.TieredVolume(64<<10, 32<<20,
//			repro.StackOn(repro.KernelAsync, 0, repro.ZSSD()),
//			repro.StackOn(repro.KernelAsync, 0, repro.NVMe750()),
//		),
//		Precondition: 0.9,
//	})
//
// Put a filesystem + page cache over any of those — buffered reads and
// write-back buffered writes, with ext4-style ordered-journal fsync —
// and drive it with a job that fsyncs every 32 writes:
//
//	fsys := repro.BuildTopology(repro.Topology{
//		Root: repro.FSOn(repro.FSConfig{
//			CacheBytes: 256 << 20,
//			Journal:    repro.OrderedJournal,
//		}, repro.StackOn(repro.KernelAsync, 0, repro.ZSSD())),
//		Precondition: 0.9,
//	})
//	res = repro.RunJob(fsys, repro.Job{Spec: repro.Spec{
//		Pattern: repro.RandWrite, BlockSize: 4096,
//		TotalIOs: 100000, SyncEvery: 32,
//	}})
//	fmt.Println(res.Fsync.Summarize()) // fsync latency distribution
//
// Serve a key-value workload — an LSM-tree store (WAL group commit,
// memtable flushes, leveled compaction, block cache) composes on any
// concurrent host and implements the same Service contract the block
// engines drive, so a YCSB-style keyed job runs through the identical
// load machinery:
//
//	store := repro.NewKV(fsys, repro.KVConfig{CacheBytes: 32 << 20})
//	store.Preload(1_000_000, 1024) // keys, value bytes
//	res = repro.RunServiceJob(store, repro.Job{Spec: repro.Spec{
//		Pattern: repro.RandRW, WriteFraction: 0.05, BlockSize: 1024,
//		Keyspace: repro.Keyspace{Keys: 1_000_000, Dist: repro.ZipfianKeys},
//		TotalIOs: 100000,
//	}, QueueDepth: 8})
//
// Reproduce a figure:
//
//	exp, _ := repro.ExperimentByID("fig10")
//	for _, table := range exp.Run(repro.ExperimentOptions{Quick: true}) {
//		table.Render(os.Stdout)
//	}
//
// The runnable equivalents live under examples/ and cmd/.
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/nbd"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/spdk"
	"repro/internal/ssd"
	"repro/internal/uring"
	"repro/internal/workload"
)

// Core composition types.
type (
	// DeviceConfig describes one SSD model.
	DeviceConfig = ssd.Config
	// Spec holds the op-mix/size/warmup fields every load engine shares;
	// Job embeds it and adds the closed-loop queue depth.
	Spec = workload.Spec
	// Job is a FIO-like benchmark job description.
	Job = workload.Job
	// Keyspace makes a job keyed: ops become gets/puts over Keys keys
	// drawn uniform/zipfian/latest instead of byte offsets.
	Keyspace = workload.Keyspace
	// KeyDist selects a keyed job's key distribution.
	KeyDist = workload.KeyDist
	// Service is the op-level contract the load engines drive: a block
	// Host behind AsService, or an application tier like the KV store.
	Service = workload.Service
	// Result carries a job's measurements.
	Result = workload.Result
	// WearReport is one device's media-wear summary (erase-count spread,
	// host/GC program split, write amplification); see Result.Wear.
	WearReport = ssd.WearReport
	// KVStore is the LSM-tree key-value tier; it implements Service.
	KVStore = kv.Store
	// KVConfig parameterizes the store (memtable/SSTable sizing, block
	// cache, WAL region, level fanout, CPU costs).
	KVConfig = kv.Config
	// KVStats counts the store's activity (group commits, flushes,
	// compaction traffic, cache hits, tree shape).
	KVStats = kv.Stats
	// Summary is a latency-distribution snapshot.
	Summary = metrics.Summary
	// Table is the uniform experiment result container.
	Table = metrics.Table
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// ExperimentOptions control experiment scale.
	ExperimentOptions = experiments.Options
	// Experiment is one registered paper artifact.
	Experiment = experiments.Experiment
	// KernelCosts is the storage-stack cost table.
	KernelCosts = kernel.Costs
	// SPDKCosts is the userspace-stack cost table.
	SPDKCosts = spdk.Costs
	// UringConfig parameterizes the io_uring stack (completion mode and
	// cost table).
	UringConfig = uring.Config
	// UringMode selects the io_uring completion scheme.
	UringMode = uring.Mode
	// UringCosts is the io_uring datapath cost table.
	UringCosts = uring.Costs
	// CPUCoreSet is a host's cores under one arbiter; with more than one
	// core, stacks contend for them (Topology.Cores).
	CPUCoreSet = cpu.CoreSet
	// CPUUtilization is one core's (or the aggregate's) time split,
	// including the raw over-subscription factor before clamping.
	CPUUtilization = cpu.Utilization
	// CPUBudget rate-limits one open-loop tenant's submit path to a
	// virtual core allowance (OpenJob.CPU).
	CPUBudget = workload.CPUBudget
	// NBDConfig parameterizes the simulated server-client system.
	NBDConfig = nbd.ModelConfig
	// NBDModel is the wired server-client system.
	NBDModel = nbd.Model

	// Topology describes a system as a layer graph rooted at one Target.
	Topology = core.Topology
	// Layer is one node of a topology graph (StackLayer, VolumeLayer or
	// FSLayer).
	Layer = core.Layer
	// QueueLayer pairs one device with its NVMe queue pair.
	QueueLayer = core.Queue
	// StackLayer drives one QueueLayer through a host I/O path.
	StackLayer = core.Stack
	// VolumeLayer composes child layers under one Target (Striped,
	// Concat, or Tiered).
	VolumeLayer = core.Volume
	// VolumeKind selects a VolumeLayer's router policy.
	VolumeKind = core.VolumeKind
	// VolumeStats counts a volume layer's routing and tiering activity.
	VolumeStats = core.VolumeStats
	// FSLayer puts a filesystem + page cache over one child layer.
	FSLayer = core.FS
	// FSConfig parameterizes the filesystem layer (cache size,
	// readahead, write-back thresholds, journal mode).
	FSConfig = fs.Config
	// FSCosts is the filesystem-tier cost table.
	FSCosts = fs.Costs
	// JournalMode selects the fsync commit protocol.
	JournalMode = fs.JournalMode
	// FSStats counts a filesystem layer's cache, write-back, and
	// journal activity.
	FSStats = fs.Stats
	// TopologySystem is a built topology: the Target-rooted runnable
	// system (it satisfies Host).
	TopologySystem = core.Graph
	// Host is the contract every workload runner drives: any
	// Target-rooted system.
	Host = core.Host

	// ProbeConfig selects what the observability probe records: phase
	// breakdowns, the trace-event flight recorder, and the gauge sampler.
	// The zero value disables everything at zero cost.
	ProbeConfig = probe.Config
	// Probe is one system's recorder (TopologySystem.Probe; nil when the
	// build-time default config records nothing).
	Probe = probe.Probe
	// Breakdown is the per-phase latency attribution (Result.Breakdown).
	Breakdown = probe.Breakdown
	// ProbePhase identifies one attributable slice of an I/O's lifetime.
	ProbePhase = probe.Phase
	// ProbeSeriesPoint is one sampled gauge value (Probe.Series).
	ProbeSeriesPoint = probe.SeriesPoint
)

// Volume router policies.
const (
	// Striped interleaves chunk-sized units across members, RAID-0 style.
	Striped = core.Striped
	// Concat appends members back to back.
	Concat = core.Concat
	// Tiered puts a fast write-absorbing tier in front of a capacity
	// backend with watermark-driven migration.
	Tiered = core.Tiered
)

// Fsync journal modes for the filesystem layer.
const (
	// NoJournal: fsync is writeback plus one device flush.
	NoJournal = fs.NoJournal
	// OrderedJournal: ext4 data=ordered with barriers (journal record,
	// flush, commit record, second flush).
	OrderedJournal = fs.OrderedJournal
	// LogStructured: F2FS-style append segments, one barrier, segment
	// cleaning under utilization pressure.
	LogStructured = fs.LogStructured
)

// Access patterns (FIO rw= equivalents).
const (
	SeqRead   = workload.SeqRead
	RandRead  = workload.RandRead
	SeqWrite  = workload.SeqWrite
	RandWrite = workload.RandWrite
	RandRW    = workload.RandRW
)

// Key distributions for keyed jobs (YCSB request distributions).
const (
	UniformKeys = workload.UniformKeys
	ZipfianKeys = workload.ZipfianKeys
	LatestKeys  = workload.LatestKeys
)

// Host stacks.
const (
	// KernelSync is the pvsync2 synchronous path (completion method
	// selected by StackLayer.Mode).
	KernelSync = core.KernelSync
	// KernelAsync is the libaio path.
	KernelAsync = core.KernelAsync
	// SPDK is the kernel-bypass userspace path.
	SPDK = core.SPDK
	// IOUring is the io_uring ring path (batched submission; completion
	// scheme selected by StackLayer.Uring).
	IOUring = core.IOUring
)

// I/O completion methods for KernelSync.
const (
	Interrupt = kernel.Interrupt
	Poll      = kernel.Poll
	Hybrid    = kernel.Hybrid
)

// io_uring completion schemes (UringConfig.Mode).
const (
	// UringInterrupt completes over MSI; every CQE visible at the
	// interrupt is reaped under one ISR charge.
	UringInterrupt = uring.Interrupt
	// UringPoll is IOPOLL: the submitting task spins on the CQ ring.
	UringPoll = uring.Poll
	// UringHybrid sleeps an adaptively resized delay (AIMD on every
	// completion), then polls.
	UringHybrid = uring.Hybrid
	// UringSQPoll dedicates a pinned kernel thread to the SQ ring:
	// submission is syscall-free; give it its own core via Cores >= 2.
	UringSQPoll = uring.SQPoll
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// ZSSD returns the calibrated ultra-low-latency device model (the 800GB
// Z-SSD prototype of the paper, scaled).
func ZSSD() DeviceConfig { return ssd.ZSSD() }

// NVMe750 returns the calibrated conventional NVMe SSD model (Intel 750
// class, scaled).
func NVMe750() DeviceConfig { return ssd.NVMe750() }

// BuildTopology lowers a layer graph into its runnable system.
func BuildTopology(t Topology) *TopologySystem { return core.Build(t) }

// StackOn returns the leaf layer: one host stack over one device with
// the default NVMe queue pair. mode picks the completion method for
// KernelSync and is ignored by the other stacks.
func StackOn(kind core.StackKind, mode kernel.Mode, dev DeviceConfig) StackLayer {
	return StackLayer{Kind: kind, Mode: mode, Queue: QueueLayer{Device: dev}}
}

// UringOn returns the leaf layer for the io_uring stack in the given
// completion mode over one device. For UringSQPoll, size the topology's
// Cores axis to at least 2 so the submission thread pins its own core.
func UringOn(mode UringMode, dev DeviceConfig) StackLayer {
	return StackLayer{Kind: IOUring, Uring: &UringConfig{Mode: mode}, Queue: QueueLayer{Device: dev}}
}

// DefaultUringCosts returns the calibrated io_uring cost table.
func DefaultUringCosts() UringCosts { return uring.DefaultCosts() }

// StripedVolume composes children into a RAID-0 stripe with the given
// chunk (stripe unit) in bytes; 0 means the 64KiB default.
func StripedVolume(chunk int64, children ...Layer) VolumeLayer {
	return VolumeLayer{Kind: Striped, Chunk: chunk, Children: children}
}

// ConcatVolume appends children back to back under one Target.
func ConcatVolume(children ...Layer) VolumeLayer {
	return VolumeLayer{Kind: Concat, Children: children}
}

// TieredVolume puts fast in front of slow: writes land on the fast
// tier while it has room (capped at fastBytes; 0 means the whole fast
// device) and migrate to the backend in allocation order once
// occupancy crosses the high watermark.
func TieredVolume(chunk, fastBytes int64, fast, slow Layer) VolumeLayer {
	return VolumeLayer{Kind: Tiered, Chunk: chunk, FastBytes: fastBytes,
		Children: []Layer{fast, slow}}
}

// FSOn puts a filesystem + page cache over child: buffered reads with
// readahead, write-back buffered writes, and fsync under cfg.Journal.
// A zero-value cfg (no cache, no journal) lowers to the child itself,
// bit-exactly.
func FSOn(cfg FSConfig, child Layer) FSLayer {
	return FSLayer{Config: cfg, Child: child}
}

// DefaultFSCosts returns the calibrated filesystem-tier cost table.
func DefaultFSCosts() FSCosts { return fs.DefaultCosts() }

// RunJob drives job against any Target-rooted system, such as a built
// TopologySystem, and returns measurements.
func RunJob(sys Host, job Job) *Result { return workload.Run(sys, job) }

// AsService adapts a block Host to the op-level Service contract, so
// the same engines that drive it can drive an application tier.
func AsService(h Host) Service { return workload.AsService(h) }

// RunServiceJob drives job against any Service — AsService(sys) for a
// block system, or an application tier such as NewKV's store.
func RunServiceJob(svc Service, job Job) *Result { return workload.RunService(svc, job) }

// NewKV composes an LSM-tree key-value store over any concurrent host
// (its background flush/compaction I/O must overlap foreground gets).
// Preload the keyspace, then drive it with keyed jobs via RunServiceJob.
func NewKV(h Host, cfg KVConfig) *KVStore { return kv.New(h, cfg) }

// DefaultKernelCosts returns the calibrated storage-stack cost table.
func DefaultKernelCosts() KernelCosts { return kernel.DefaultCosts() }

// DefaultSPDKCosts returns the calibrated SPDK cost table.
func DefaultSPDKCosts() SPDKCosts { return spdk.DefaultCosts() }

// Experiments returns every registered experiment in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks up one experiment (e.g. "fig10").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// KernelNBD and SPDKNBD return the two server-client configurations of
// Figure 23 over the given backing device.
func KernelNBD(dev DeviceConfig) NBDConfig { return nbd.KernelNBD(dev) }
func SPDKNBD(dev DeviceConfig) NBDConfig   { return nbd.SPDKNBD(dev) }

// NewNBDModel builds the simulated server-client system.
func NewNBDModel(cfg NBDConfig) *NBDModel { return nbd.NewModel(cfg) }

// SetProbeDefault installs cfg as the process-wide observability default
// consulted when systems are built. Probes only observe: any setting
// leaves fixed-seed simulation output byte-identical.
func SetProbeDefault(cfg ProbeConfig) { probe.SetDefault(cfg) }

// ProbeDefault returns the current process-wide probe default.
func ProbeDefault() ProbeConfig { return probe.Default() }

// WriteTrace writes the probes' flight-recorder windows as Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing.
func WriteTrace(w io.Writer, probes ...*Probe) error { return probe.WriteTrace(w, probes...) }
