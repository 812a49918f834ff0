package main

// The three workloads. Each is composed from outside the program through
// the layers' public functions (core.Build, kv.New/Preload,
// workload.Run/RunService, orchestrator.RunProgress) and timed here, so
// set-up and simulation are split without touching program code.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/kv"
	"repro/internal/orchestrator"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// precondition is the fill level of every device, as in the registry.
const precondition = 0.9

// sweepWorkers is the orchestrator pool width: the host has two CPUs.
const sweepWorkers = 2

// scale sizes the workloads. fullScale is what the benchmark measures;
// tinyScale keeps the tests fast.
type scale struct {
	name       string
	sweepIOs   int   // measured I/Os per sweep point
	sweepSizes []int // block sizes in KiB
	gcIOs      int   // measured I/Os of the gc-steady run
	kvKeys     int64 // preloaded keys
	kvOps      int   // measured ops of the kv-mixed run
}

var fullScale = scale{
	name:       "full",
	sweepIOs:   2000,
	sweepSizes: []int{4, 8, 16, 32},
	gcIOs:      600000,
	kvKeys:     64 << 10,
	kvOps:      60000,
}

var tinyScale = scale{
	name:       "tiny",
	sweepIOs:   100,
	sweepSizes: []int{4},
	gcIOs:      3000,
	kvKeys:     4 << 10,
	kvOps:      300,
}

func findScale(name string) (scale, bool) {
	for _, sc := range []scale{fullScale, tinyScale} {
		if sc.name == name {
			return sc, true
		}
	}
	return scale{}, false
}

// point is one timed, digested unit of a workload: a sweep point, or the
// whole run of gc-steady or kv-mixed.
type point struct {
	Key    string
	Digest string
	Err    string        // panic message; empty when the point ran
	Host   time.Duration // host time; set-up excluded on gc-steady and kv-mixed
}

// rep is one complete execution of a workload.
type rep struct {
	Wall   time.Duration // host time of the whole workload
	Setup  time.Duration // host time in core.Build and kv.New/Preload
	Build  time.Duration // host time in core.Build alone
	Run    time.Duration // host time in workload.Run/RunService
	Points []point
	Layer  counters // simulated per-layer counters of the whole rep
	// PeakRSS is the peak resident set in MB of the repetition's own
	// process; 0 when it ran inside the benchmark process.
	PeakRSS float64
}

// failed counts the points that panicked or had a wrong digest.
func (r *rep) failed() int {
	n := 0
	for _, p := range r.Points {
		if p.Err != "" {
			n++
		}
	}
	return n
}

// benchWorkload is one named workload.
type benchWorkload struct {
	name    string
	workers int // goroutines running points at once
	run     func(seed uint64, sc scale) rep
}

var workloads = []benchWorkload{
	{"sweep-setup", sweepWorkers, runSweep},
	{"gc-steady", 1, runGC},
	{"kv-mixed", 1, runKV},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// guard runs fn, turning a panic into an error message.
func guard(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// --- sweep-setup ---

// sweepStack is one host stack of the sweep with its queue depth.
type sweepStack struct {
	name  string
	kind  core.StackKind
	depth int
}

var sweepStacks = []sweepStack{
	{"pvsync2", core.KernelSync, 1}, // interrupt completion
	{"libaio", core.KernelAsync, 8},
	{"spdk", core.SPDK, 8},
	{"io_uring", core.IOUring, 8}, // interrupt completion
}

var sweepPatterns = []workload.Pattern{workload.SeqRead, workload.RandRead, workload.SeqWrite, workload.RandWrite}

// sweepDevice is one device class of the sweep.
type sweepDevice struct {
	name string
	cfg  func() ssd.Config
}

var sweepDevices = []sweepDevice{{"zssd", ssd.ZSSD}, {"nvme750", ssd.NVMe750}}

// sweepSpec is the generated input of one sweep point.
type sweepSpec struct {
	key   string
	dev   sweepDevice
	stack sweepStack
	job   workload.Job
}

// sweepSpecs lists the sweep points in a fixed order. Seeds are filled
// in per point by the orchestrator.
func sweepSpecs(sc scale) []sweepSpec {
	var out []sweepSpec
	for _, dev := range sweepDevices {
		for _, st := range sweepStacks {
			for _, pat := range sweepPatterns {
				for _, kib := range sc.sweepSizes {
					out = append(out, sweepSpec{
						key:   fmt.Sprintf("%s/%s/%s/%dk", dev.name, st.name, pat, kib),
						dev:   dev,
						stack: st,
						job: workload.Job{
							Spec: workload.Spec{
								Pattern:   pat,
								BlockSize: kib << 10,
								TotalIOs:  sc.sweepIOs,
							},
							QueueDepth: st.depth,
						},
					})
				}
			}
		}
	}
	return out
}

// sweepInput derives a point's device config and job from its seed.
func sweepInput(s sweepSpec, seed uint64) (ssd.Config, workload.Job) {
	dcfg := s.dev.cfg()
	dcfg.Seed ^= seed
	job := s.job
	job.Seed = seed
	return dcfg, job
}

// sweepResult is what one sweep job hands back through the orchestrator.
type sweepResult struct {
	pt          point
	setup, runT time.Duration
	layer       counters
}

func runSweepPoint(s sweepSpec, seed uint64) (out sweepResult) {
	out.pt.Key = s.key
	t0 := time.Now()
	out.pt.Err = guard(func() {
		dcfg, job := sweepInput(s, seed)
		g := core.Build(core.Topology{
			Root:         core.Stack{Kind: s.stack.kind, Mode: kernel.Interrupt, Queue: core.Queue{Device: dcfg}},
			Precondition: precondition,
		})
		t1 := time.Now()
		out.setup = t1.Sub(t0)
		job.Region = preconditioned(g)
		res := workload.Run(g, job)
		out.runT = time.Since(t1)
		out.pt.Digest = digestPoint(res, g, nil)
		out.layer = collect(g, nil, res.Breakdown)
		out.layer.Ops = res.IOs
	})
	out.pt.Host = time.Since(t0)
	return out
}

func runSweep(seed uint64, sc scale) rep {
	specs := sweepSpecs(sc)
	jobs := make([]orchestrator.Job, len(specs))
	for i, s := range specs {
		s := s
		jobs[i] = orchestrator.Job{Key: s.key, Run: func(seed uint64) any { return runSweepPoint(s, seed) }}
	}
	t0 := time.Now()
	results := orchestrator.RunProgress(seed, sweepWorkers, jobs, nil)
	var r rep
	r.Wall = time.Since(t0)
	for _, res := range results {
		sr := res.(sweepResult)
		r.Points = append(r.Points, sr.pt)
		r.Setup += sr.setup
		r.Build += sr.setup
		r.Run += sr.runT
		r.Layer.add(sr.layer)
	}
	return r
}

// preconditioned is the byte region a job is confined to so every read
// hits mapped media: the preconditioned span aligned down to 1 MiB.
func preconditioned(g *core.Graph) int64 {
	const align = 1 << 20
	return int64(g.Precondition()*float64(g.ExportedBytes())) / align * align
}

// --- gc-steady ---

// gcInput is the generated input of gc-steady.
func gcInput(seed uint64, sc scale) (ssd.Config, workload.Job) {
	dcfg := ssd.ZSSD()
	dcfg.Seed ^= seed
	return dcfg, workload.Job{
		Spec: workload.Spec{
			Pattern:       workload.RandRW,
			WriteFraction: 0.7,
			BlockSize:     4 << 10,
			TotalIOs:      sc.gcIOs,
			Seed:          seed,
		},
		QueueDepth: 8,
	}
}

// runGC is one point: build, then one long run.
func runGC(seed uint64, sc scale) rep {
	r := rep{Points: []point{{Key: "gc-steady"}}}
	pt := &r.Points[0]
	t0 := time.Now()
	pt.Err = guard(func() {
		dcfg, job := gcInput(seed, sc)
		g := core.Build(core.Topology{
			Root:         core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: dcfg}},
			Precondition: precondition,
		})
		r.Build = time.Since(t0)
		r.Setup = r.Build
		t1 := time.Now()
		job.Region = preconditioned(g)
		res := workload.Run(g, job)
		r.Run = time.Since(t1)
		pt.Digest = digestPoint(res, g, nil)
		r.Layer = collect(g, nil, res.Breakdown)
		r.Layer.Ops = res.IOs
	})
	pt.Host = r.Run
	r.Wall = time.Since(t0)
	return r
}

// --- kv-mixed ---

// kvValueBytes is the record size: 1 KiB, the YCSB default.
const kvValueBytes = 1 << 10

// kvCores is the modelled host core count: flushes, compactions and gets
// contend for the cores.
const kvCores = 2

// kvConfig keeps the block cache (1 MiB) and page cache (4 MiB) far
// below the 64 MiB data set.
var kvConfig = kv.Config{
	MemtableBytes: 128 << 10,
	SSTableBytes:  128 << 10,
	BlockBytes:    8 << 10,
	CacheBytes:    1 << 20,
	WALBytes:      8 << 20,
	L0Tables:      2,
	LevelRatio:    4,
}

var kvFS = fs.Config{CacheBytes: 4 << 20, Journal: fs.OrderedJournal}

// kvInput is the generated input of kv-mixed.
func kvInput(seed uint64, sc scale) (ssd.Config, workload.Job) {
	dcfg := ssd.ZSSD()
	dcfg.Seed ^= seed
	return dcfg, workload.Job{
		Spec: workload.Spec{
			Pattern:       workload.RandRW,
			WriteFraction: 0.5,
			BlockSize:     kvValueBytes,
			Keyspace:      workload.Keyspace{Keys: sc.kvKeys, Dist: workload.ZipfianKeys},
			TotalIOs:      sc.kvOps,
			Seed:          seed,
		},
		QueueDepth: 8,
	}
}

// runKV is one point: build and preload the store, then one long run.
func runKV(seed uint64, sc scale) rep {
	r := rep{Points: []point{{Key: "kv-mixed"}}}
	pt := &r.Points[0]
	t0 := time.Now()
	pt.Err = guard(func() {
		dcfg, job := kvInput(seed, sc)
		g := core.Build(core.Topology{
			Root: core.FS{
				Config: kvFS,
				Child:  core.Stack{Kind: core.KernelAsync, Queue: core.Queue{Device: dcfg}},
			},
			Cores:        kvCores,
			Precondition: precondition,
		})
		r.Build = time.Since(t0)
		store := kv.New(g, kvConfig)
		store.Preload(sc.kvKeys, kvValueBytes)
		t1 := time.Now()
		r.Setup = t1.Sub(t0)
		res := workload.RunService(store, job)
		r.Run = time.Since(t1)
		pt.Digest = digestPoint(res, g, store)
		r.Layer = collect(g, store, res.Breakdown)
		r.Layer.Ops = res.IOs
	})
	pt.Host = r.Run
	r.Wall = time.Since(t0)
	return r
}
