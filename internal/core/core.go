// Package core composes the full system under test: a simulated SSD
// behind an NVMe queue pair, driven by one of the host storage stacks
// (kernel sync with a chosen completion method, kernel async/libaio,
// SPDK, or io_uring with a chosen completion mode), with CPU, power, and
// latency instrumentation — the simulated equivalent of the paper's
// testbed (Section III).
package core

import (
	"fmt"
)

// StackKind selects the host I/O path.
type StackKind int

// The host stacks the paper evaluates.
const (
	// KernelSync is the pvsync2 path; its completion method is chosen by
	// Stack.Mode.
	KernelSync StackKind = iota
	// KernelAsync is the libaio path (interrupt completion, queue depth
	// managed by the submitter).
	KernelAsync
	// SPDK is the kernel-bypass userspace path (poll-only).
	SPDK
	// IOUring is the io_uring path (batched ring submission; completion
	// mode chosen by Stack.Uring).
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
