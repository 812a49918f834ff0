// Package ssd models complete NVMe block devices: a controller front-end,
// DRAM write buffer and read cache, channels (paired into super-channels
// on the ULL device), a page-mapping flash translation layer, and garbage
// collection, all running over flash dies from package flash.
//
// Two calibrated configurations reproduce the paper's devices: ZSSD (the
// 800GB Z-SSD prototype) and NVMe750 (the Intel 750 class conventional
// NVMe SSD). Capacities are scaled down to a few GB; the behaviours of
// interest are driven by parallelism, over-provisioning and latency
// ratios, which match the real device classes.
//
// Every sweep point builds a fresh device and usually preconditions it,
// so set-up is kept proportional to blocks, not mapping slots: the
// preconditioned fill is a closed form the FTL resolves on lookup, and
// only the slots later overwritten, trimmed, migrated or erased hold
// explicit mapping entries (see Device.Precondition and README
// "Simulator performance").
package ssd

import (
	"repro/internal/flash"
	"repro/internal/sim"
)

// Config describes one SSD model.
type Config struct {
	Name string

	// Media and geometry. The flash unit of parallelism here is a plane:
	// Channels × WaysPerChannel × PlanesPerDie independent flash.Die
	// state machines.
	NAND           flash.Config
	Channels       int
	WaysPerChannel int
	PlanesPerDie   int
	PagesPerBlock  int
	BlocksPerUnit  int
	OverProvision  float64 // fraction of raw capacity reserved

	// MappingUnit is the FTL translation granularity in bytes (0 means
	// one flash page). Conventional SSDs map 4KB sectors and pack
	// several per 16KB flash page, log-structured; the device batches
	// such programs.
	MappingUnit int

	// SuperChannels pairs adjacent channels; a host block is split across
	// the pair by the split-DMA engine (Section II-A2).
	SuperChannels bool
	SplitDMACost  sim.Time // split-DMA management engine, per host op
	RemapCost     sim.Time // remap checker lookup, per flash op

	// Interconnect.
	ChannelMBps float64
	PCIeMBps    float64
	PCIeLatency sim.Time

	// Controller.
	FirmwareSubmit   sim.Time // command decode + FTL lookup, per host command
	FirmwareComplete sim.Time // completion path, per host command
	FirmwareJitter   float64  // relative stddev on firmware stages
	ControllerPerCmd sim.Time // serialized controller pipeline occupancy per command

	// DRAM subsystem.
	DRAMLatency      sim.Time // buffer/cache hit service time
	WriteBufferBytes int64
	FlushDelay       sim.Time // coalescing window before a buffered page is flushed
	FlushBatch       sim.Time // gathering window for packing slots into one program
	ReadCachePages   int
	PrefetchPages    int // pages read ahead once a sequential stream is detected

	// Garbage collection watermarks, in free blocks per unit.
	GCLowWater  int
	GCHighWater int

	// Firmware checkpoint: every CheckpointEvery host commands the
	// controller stalls for CheckpointDuration to persist FTL metadata
	// (mapping-journal flush). This is the dominant tail event of an
	// otherwise idle-media workload — the paper's five-nines latencies
	// in the hundreds of microseconds on the ULL device.
	CheckpointEvery    uint64
	CheckpointDuration sim.Time

	Power PowerConfig

	// Seed for the device's private RNG stream.
	Seed uint64
}

// Units reports the number of independent flash units (planes).
func (c Config) Units() int { return c.Channels * c.WaysPerChannel * c.PlanesPerDie }

// MappingUnitBytes reports the FTL translation granularity.
func (c Config) MappingUnitBytes() int {
	if c.MappingUnit > 0 {
		return c.MappingUnit
	}
	return c.NAND.PageSize
}

// SlotsPerPage reports mapping slots per physical flash page (>= 1).
func (c Config) SlotsPerPage() int {
	n := c.NAND.PageSize / c.MappingUnitBytes()
	if n < 1 {
		return 1
	}
	return n
}

// PagesPerUnit reports pages per flash unit.
func (c Config) PagesPerUnit() int64 {
	return int64(c.BlocksPerUnit) * int64(c.PagesPerBlock)
}

// RawBytes reports the raw media capacity.
func (c Config) RawBytes() int64 {
	return int64(c.Units()) * c.PagesPerUnit() * int64(c.NAND.PageSize)
}

// ExportedBytes reports the host-visible capacity after over-provisioning.
func (c Config) ExportedBytes() int64 {
	exported := float64(c.RawBytes()) * (1 - c.OverProvision)
	// Round down to a whole number of mapping slots.
	unit := int64(c.MappingUnitBytes())
	return int64(exported) / unit * unit
}

// ZSSD returns the ultra-low-latency device model: Z-NAND media, 8
// super-channel pairs, split-DMA, suspend/resume, and a small but fast
// write buffer. Scaled capacity ≈ 3.75GB raw (120 units of 2KB pages);
// parallelism and over-provisioning ratios match the real device class.
func ZSSD() Config {
	return Config{
		Name:               "ULL SSD (Z-SSD)",
		NAND:               zssdNANDPower(flash.ZNAND()),
		Channels:           12,
		WaysPerChannel:     10,
		PlanesPerDie:       1,
		PagesPerBlock:      256,
		BlocksPerUnit:      64,
		OverProvision:      0.12,
		SuperChannels:      true,
		SplitDMACost:       300 * sim.Nanosecond,
		RemapCost:          100 * sim.Nanosecond,
		ChannelMBps:        800,
		PCIeMBps:           3300,
		PCIeLatency:        300 * sim.Nanosecond,
		FirmwareSubmit:     2000 * sim.Nanosecond,
		FirmwareComplete:   600 * sim.Nanosecond,
		FirmwareJitter:     0.12,
		ControllerPerCmd:   700 * sim.Nanosecond,
		DRAMLatency:        1500 * sim.Nanosecond,
		WriteBufferBytes:   2 << 20,
		FlushDelay:         20 * sim.Microsecond,
		ReadCachePages:     4096, // 8MB of 2KB pages
		PrefetchPages:      8,
		GCLowWater:         4,
		GCHighWater:        6,
		CheckpointEvery:    25000,
		CheckpointDuration: 420 * sim.Microsecond,
		Power: PowerConfig{
			Idle:             3.6,
			ControllerActive: 0.35,
			ChannelActive:    0.02,
		},
		Seed: 0x5a55,
	}
}

// NVMe750 returns the conventional high-end NVMe SSD model: MLC-class 3D
// NAND (V-NAND timings), 16KB pages, a large DRAM write-back cache, no
// suspend/resume, no super-channels. Scaled capacity ≈ 2GB raw.
func NVMe750() Config {
	nand := flash.VNAND()
	// Device-level power calibration for the Intel-750-class model.
	nand.ReadPower = 0.02
	nand.ProgramPower = 0.18
	nand.ErasePower = 0.12
	return Config{
		Name:               "NVMe SSD (Intel 750 class)",
		NAND:               nand,
		Channels:           16,
		WaysPerChannel:     2,
		PlanesPerDie:       1,
		PagesPerBlock:      64,
		BlocksPerUnit:      64,
		OverProvision:      0.12,
		SuperChannels:      false,
		MappingUnit:        4096,
		ChannelMBps:        400,
		PCIeMBps:           3300,
		PCIeLatency:        300 * sim.Nanosecond,
		FirmwareSubmit:     2600 * sim.Nanosecond,
		FirmwareComplete:   1000 * sim.Nanosecond,
		FirmwareJitter:     0.15,
		ControllerPerCmd:   2200 * sim.Nanosecond,
		DRAMLatency:        2100 * sim.Nanosecond,
		WriteBufferBytes:   8 << 20,
		FlushDelay:         60 * sim.Microsecond,
		FlushBatch:         4 * sim.Microsecond,
		ReadCachePages:     2048, // 32MB of 16KB pages
		PrefetchPages:      32,
		GCLowWater:         3,
		GCHighWater:        5,
		CheckpointEvery:    25000,
		CheckpointDuration: 1400 * sim.Microsecond,
		Power: PowerConfig{
			Idle:             3.8,
			ControllerActive: 0.3,
			ChannelActive:    0.05,
		},
		Seed: 0x750,
	}
}

// zssdNANDPower applies the ULL device's die power calibration (the flash
// presets carry technology defaults; the device calibration overrides
// them).
func zssdNANDPower(c flash.Config) flash.Config {
	c.ReadPower = 0.03
	c.ProgramPower = 0.02
	c.ErasePower = 0.04
	return c
}
