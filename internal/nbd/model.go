// Package nbd reproduces the paper's server-client study (Section VI-C,
// Figure 23): a client running ext4 on a network block device backed by a
// ULL SSD in a storage server, comparing a conventional kernel NBD server
// against an SPDK NBD server.
//
// The timing model captures the effect the paper isolates: reads always
// traverse the network and the server's storage stack, so server-side
// kernel bypass pays off in full; writes are dominated by client-side
// file-system work (metadata, journaling) and only a fraction of them
// synchronously waits on the server, so the SPDK advantage dilutes to a
// few percent.
//
// The package also contains a real TCP block-device protocol (wire.go)
// used by the runnable examples.
package nbd

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// ModelConfig parameterizes the simulated server-client system.
type ModelConfig struct {
	// Server is the storage server system (device + host stack). Kernel
	// NBD uses the libaio/interrupt stack; SPDK NBD uses the SPDK stack.
	Server core.Topology

	// Network: a full-duplex link.
	NetLatency sim.Time // one-way propagation + NIC processing
	NetMBps    float64

	// Server software path, per request.
	ServerRecvCost sim.Time // socket read + request decode (+ copies)
	ServerSendCost sim.Time // response build + socket write
	ServerWakeups  sim.Time // scheduler wake latencies (0 when polling)

	// Client-side ext4 model.
	FSReadCPU        sim.Time // per-read file-system work
	FSWriteCPU       sim.Time // per-write metadata/journal bookkeeping
	JournalSyncFrac  float64  // writes that wait for a synchronous journal commit
	JournalBlockSize int      // descriptor/commit block size

	Seed uint64
}

// KernelNBD returns the conventional configuration: Linux NBD client,
// user-space server doing syscall I/O through the full kernel stack with
// interrupt completion.
func KernelNBD(dev ssd.Config) ModelConfig {
	return ModelConfig{
		Server: core.Topology{
			Root:         core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: dev}},
			Precondition: 1.0,
		},
		NetLatency:       12 * sim.Microsecond,
		NetMBps:          1180, // ~10GbE effective
		ServerRecvCost:   2500 * sim.Nanosecond,
		ServerSendCost:   2200 * sim.Nanosecond,
		ServerWakeups:    24 * sim.Microsecond, // recv + completion wakeups
		FSReadCPU:        2500 * sim.Nanosecond,
		FSWriteCPU:       28 * sim.Microsecond,
		JournalSyncFrac:  0.03,
		JournalBlockSize: 4096,
		Seed:             0x4e42,
	}
}

// SPDKNBD returns the kernel-bypass configuration: the server runs the
// SPDK NBD target, polling both the socket (DPDK) and the NVMe queue
// pair, so per-request wakeups disappear.
func SPDKNBD(dev ssd.Config) ModelConfig {
	cfg := KernelNBD(dev)
	cfg.Server.Root = core.Stack{Kind: core.SPDK, Queue: core.Queue{Device: dev}}
	cfg.ServerRecvCost = 700 * sim.Nanosecond
	cfg.ServerSendCost = 900 * sim.Nanosecond
	cfg.ServerWakeups = 0
	return cfg
}

// netLink is a FIFO bandwidth+latency pipe (one direction).
type netLink struct {
	eng    *sim.Engine
	mbps   float64
	lat    sim.Time
	freeAt sim.Time
}

// send schedules fn after the n-byte message crosses the link.
func (l *netLink) send(n int, fn func()) {
	now := l.eng.Now()
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	xfer := sim.Time(float64(n) * 1e3 / l.mbps)
	l.freeAt = start + xfer
	l.eng.At(l.freeAt+l.lat, fn)
}

// Model is the wired server-client system.
type Model struct {
	cfg ModelConfig
	sys *core.Graph
	eng *sim.Engine
	rng *sim.RNG
	up  *netLink // client -> server (requests, write payloads)
	dn  *netLink // server -> client (responses, read payloads)

	freeReqs *remoteReq // recycled per-request contexts

	// Stats.
	RemoteReads  uint64
	RemoteWrites uint64
	JournalSyncs uint64
	AsyncFlushes uint64
}

// remoteReq is the pooled context of one block I/O against the server:
// uplink, server receive path, device, server send path, downlink. The
// step callbacks are bound once at first allocation so a remote I/O
// schedules no closures in steady state.
type remoteReq struct {
	m      *Model
	write  bool
	offset int64
	length int
	done   func()
	next   *remoteReq

	fsFn     func() // client FS work done (FileRead entry)
	arriveFn func() // request crossed the uplink
	recvFn   func() // server receive path done: hit the device
	devFn    func() // device I/O complete
	sendFn   func() // server send path done: response onto the downlink
}

// getReq takes a remote-request context from the free list; the sendFn
// closure bound on first allocation recycles it after the response is
// queued, so there is no separate put helper.
//
//ullvet:pool get
func (m *Model) getReq() *remoteReq {
	r := m.freeReqs
	if r == nil {
		r = &remoteReq{m: m}
		r.fsFn = func() { r.m.startRemote(r) }
		r.arriveFn = func() {
			c := &r.m.cfg
			r.m.eng.After(c.ServerRecvCost+c.ServerWakeups/2, r.recvFn)
		}
		r.recvFn = func() { r.m.sys.Submit(r.write, r.offset, r.length, r.devFn) }
		r.devFn = func() {
			c := &r.m.cfg
			r.m.eng.After(c.ServerSendCost+c.ServerWakeups/2, r.sendFn)
		}
		r.sendFn = func() {
			m := r.m
			respBytes := 32
			if !r.write {
				respBytes += r.length
			}
			done := r.done
			r.done = nil
			r.next = m.freeReqs
			m.freeReqs = r
			m.dn.send(respBytes, done)
		}
		return r
	}
	m.freeReqs = r.next
	r.next = nil
	return r
}

// startRemote puts the request on the uplink (stats and payload sizing).
func (m *Model) startRemote(r *remoteReq) {
	reqBytes := 64
	if r.write {
		reqBytes += r.length
		m.RemoteWrites++
	} else {
		m.RemoteReads++
	}
	m.up.send(reqBytes, r.arriveFn)
}

// NewModel builds the system. The server device is preconditioned by the
// server topology.
func NewModel(cfg ModelConfig) *Model {
	sys := core.Build(cfg.Server)
	m := &Model{
		cfg: cfg,
		sys: sys,
		eng: sys.Engine(),
		rng: sim.NewRNG(cfg.Seed),
	}
	m.up = &netLink{eng: m.eng, mbps: cfg.NetMBps, lat: cfg.NetLatency}
	m.dn = &netLink{eng: m.eng, mbps: cfg.NetMBps, lat: cfg.NetLatency}
	return m
}

// Engine exposes the simulation engine driving the model.
func (m *Model) Engine() *sim.Engine { return m.eng }

// System exposes the server system (for finalization and stats).
func (m *Model) System() *core.Graph { return m.sys }

// remote performs one block I/O against the server: request over the
// uplink, server software path, device I/O, response over the downlink.
func (m *Model) remote(write bool, offset int64, length int, done func()) {
	r := m.getReq()
	r.write = write
	r.offset = offset
	r.length = length
	r.done = done
	m.startRemote(r)
}

// clampOffset keeps file offsets within the server device.
func (m *Model) clampOffset(offset int64, length int) int64 {
	max := m.sys.ExportedBytes() - int64(length)
	if max <= 0 {
		return 0
	}
	if offset < 0 {
		offset = 0
	}
	return offset % ((max / int64(length)) * int64(length))
}

// FileRead performs one file read: client FS work, then a remote block
// read (O_DIRECT-style: file reads always reach the device).
func (m *Model) FileRead(offset int64, length int, done func()) {
	offset = m.clampOffset(offset, length)
	m.sys.CoreSet().Core(0).Charge(cpu.FnExt4, m.cfg.FSReadCPU, 300, 90)
	r := m.getReq()
	r.write = false
	r.offset = offset
	r.length = length
	r.done = done
	m.eng.After(m.cfg.FSReadCPU, r.fsFn)
}

// FileWrite performs one file write. The client pays metadata/journal
// bookkeeping; a JournalSyncFrac fraction of writes additionally waits
// for a synchronous journal commit (data, descriptor, commit record in
// order); the rest complete locally while the data flushes to the server
// in the background.
func (m *Model) FileWrite(offset int64, length int, done func()) {
	offset = m.clampOffset(offset, length)
	m.sys.CoreSet().Core(0).Charge(cpu.FnExt4, m.cfg.FSWriteCPU, 900, 600)
	m.eng.After(m.cfg.FSWriteCPU, func() {
		if m.rng.Float64() >= m.cfg.JournalSyncFrac {
			// Asynchronous path: ack now, flush in the background.
			m.AsyncFlushes++
			m.remote(true, offset, length, func() {})
			done()
			return
		}
		// Synchronous journal commit: data block, then descriptor, then
		// commit record, strictly ordered.
		m.JournalSyncs++
		jb := m.cfg.JournalBlockSize
		m.remote(true, offset, length, func() {
			m.remote(true, m.journalOffset(0), jb, func() {
				m.remote(true, m.journalOffset(1), jb, done)
			})
		})
	})
}

// journalOffset places journal blocks in the last region of the device.
func (m *Model) journalOffset(idx int64) int64 {
	jb := int64(m.cfg.JournalBlockSize)
	base := m.sys.ExportedBytes() - 64*jb
	if base < 0 {
		base = 0
	}
	return base + (idx%32)*jb
}
