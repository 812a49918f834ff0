// The service-generic load API. The load engines (closed-loop,
// open-loop, multi-tenant) used to be hard-wired to block operations
// against a core.Host; Service is the op-level contract that decouples
// them from what an operation *is*: issue one operation at a position,
// complete it through the engine, barrier for durability. A raw block
// system is one Service (positions are byte offsets); an application
// tier like the LSM KV store in internal/kv is another (positions are
// keys) — both are driven by the same engines, jobs, and metering, so a
// QPS-vs-offered-load sweep over a key-value store is expressed exactly
// like a latency-vs-load sweep over a bare device.
package workload

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Service is the op-level contract every load engine drives.
type Service interface {
	// Engine returns the event engine the service schedules on.
	Engine() *sim.Engine
	// Ops reports the size of the service's operation space: bytes for a
	// block service, keys for a KV service. Position streams draw from
	// [0, Ops()).
	Ops() int64
	// Serial reports whether the service completes one operation at a
	// time (a bare pvsync2 stack); engines clamp concurrency to 1.
	Serial() bool
	// Issue starts one operation and calls done exactly once when it
	// completes, from an engine event. pos is a byte offset on a block
	// service and a key on a keyed service; size is the transfer or
	// value size in bytes. write selects the operation's latency class:
	// it lands in Result.Write (a put) or Result.Read (a get).
	Issue(write bool, pos int64, size int, done func())
	// Sync runs one durability barrier (fsync semantics; latencies land
	// in Result.Fsync, outside the IOPS denominator).
	Sync(done func())
	// Finalize settles deferred accounting once the run's events drain.
	Finalize()
}

// WearReporter is the optional Service extension for device-wear
// telemetry: per-device erase counts and write amplification, in
// topology lowering order. Block systems report it whenever the
// underlying host does; layered services forward their host's report.
type WearReporter interface {
	WearStats() []ssd.WearReport
}

// hostService adapts a block core.Host, such as a built topology
// Graph, to the Service contract.
// Positions are byte offsets and Issue lowers to Submit, so driving the
// adapter is bit-exact with driving the host directly.
type hostService struct{ h core.Host }

// AsService adapts any block Host to the op-level Service contract.
func AsService(h core.Host) Service { return hostService{h} }

func (s hostService) Engine() *sim.Engine { return s.h.Engine() }
func (s hostService) Ops() int64          { return s.h.ExportedBytes() }
func (s hostService) Serial() bool        { return s.h.Serial() }
func (s hostService) Finalize()           { s.h.Finalize() }
func (s hostService) Sync(done func())    { s.h.Sync(done) }

func (s hostService) Issue(write bool, pos int64, size int, done func()) {
	s.h.Submit(write, pos, size, done)
}

// WearStats forwards the wrapped host's wear report when it has one.
func (s hostService) WearStats() []ssd.WearReport {
	if w, ok := s.h.(WearReporter); ok {
		return w.WearStats()
	}
	return nil
}

// opSource generates a job's (write, position) sequence: byte offsets
// from the block-pattern opStream, keys from the YCSB-style keyStream.
type opSource interface {
	next() (write bool, pos int64)
}

// newOpSource picks the position stream for a spec: the keyed stream
// when a Keyspace is configured, the block-pattern stream otherwise.
func newOpSource(svc Service, s *Spec, rng *sim.RNG) opSource {
	if s.Keyspace.Keys > 0 {
		if s.Region != 0 {
			panic("workload: Region bounds byte-addressed jobs; bound a keyed job with Keyspace.Keys")
		}
		return newKeyStream(s.Pattern, s.WriteFraction, s.Keyspace, rng)
	}
	return newOpStream(svc.Ops(), s.Pattern, s.WriteFraction, s.BlockSize, s.Region, rng)
}
