// Command fioemu runs ad-hoc FIO-style jobs against the simulated devices
// and prints a FIO-like report — the paper's microbenchmark workflow
// (Section III-A) without the figure harness.
//
// Examples:
//
//	fioemu -dev ull -rw randread -bs 4096 -iodepth 1 -engine pvsync2 -completion poll -ios 100000
//	fioemu -dev nvme -rw randwrite -bs 4096 -iodepth 32 -engine libaio -runtime 500ms
//	fioemu -dev ull -rw randrw -rwmixwrite 20 -bs 4096 -iodepth 4 -engine libaio -ios 50000
//	fioemu -dev ull -rw randread -bs 4096 -iodepth 32 -engine io_uring -completion sqpoll -ios 100000
//
// Filesystem: -fs routes I/O through the page-cache layer (buffered
// reads, write-back buffered writes), -journal picks the fsync commit
// protocol, and -syncratio N issues one fsync per N writes:
//
//	fioemu -dev ull -rw randwrite -ios 20000 -engine libaio -fs -journal ordered -syncratio 32
//
// Traces: -trace-out records the run's per-I/O trace as CSV;
// -replay re-issues a recorded trace (open loop) instead of a synthetic
// pattern, so a stream captured on one device can be replayed on another:
//
//	fioemu -dev nvme -rw randrw -ios 20000 -trace-out nvme.csv
//	fioemu -dev ull -replay nvme.csv
//
// Observability: -breakdown prints the per-phase latency attribution
// (where each microsecond of a request went), -trace writes a Chrome
// trace-event JSON of the run (Perfetto-loadable; distinct from the
// per-I/O CSV of -trace-out), and -series samples layer gauges (queue
// depth, dirty ratio, cache hit rate) into a CSV time series:
//
//	fioemu -dev ull -rw randwrite -ios 20000 -fs -journal ordered -syncratio 32 -breakdown
//	fioemu -dev ull -rw randread -ios 20000 -trace run.json -series gauges.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config carries the parsed flag set; separated from run so tests can
// check the flag-to-system wiring without executing a simulation.
type config struct {
	dev        string
	rw         string
	mixWrite   int
	bs         int
	depth      int
	engine     string
	completion string
	ios        int
	runtime    time.Duration
	precond    float64
	seed       uint64
	traceOut   string
	replay     string

	fsOn      bool
	fsCache   int64
	journal   string
	syncRatio int

	breakdown bool
	traceJSON string
	seriesOut string
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	c := &config{}
	fl := flag.NewFlagSet("fioemu", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&c.dev, "dev", "ull", "device: ull | nvme")
	fl.StringVar(&c.rw, "rw", "randread", "pattern: read | randread | write | randwrite | randrw")
	fl.IntVar(&c.mixWrite, "rwmixwrite", 50, "write percentage for randrw (0-100)")
	fl.IntVar(&c.bs, "bs", 4096, "block size in bytes")
	fl.IntVar(&c.depth, "iodepth", 1, "queue depth (libaio/spdk)")
	fl.StringVar(&c.engine, "engine", "pvsync2", "engine: pvsync2 | libaio | io_uring | spdk")
	fl.StringVar(&c.completion, "completion", "interrupt", "completion: interrupt | poll | hybrid (pvsync2/io_uring) | sqpoll (io_uring)")
	fl.IntVar(&c.ios, "ios", 0, "total I/Os (0 = use -runtime)")
	fl.DurationVar(&c.runtime, "runtime", 0, "simulated runtime (e.g. 500ms)")
	fl.Float64Var(&c.precond, "precondition", 0.9, "fraction of LPN space preconditioned")
	fl.Uint64Var(&c.seed, "seed", 1, "workload seed")
	fl.StringVar(&c.traceOut, "trace-out", "", "record the run's I/O trace to this CSV file")
	fl.StringVar(&c.replay, "replay", "", "replay a recorded trace instead of a synthetic pattern")
	fl.BoolVar(&c.fsOn, "fs", false, "route I/O through the filesystem/page-cache layer (buffered I/O)")
	fl.Int64Var(&c.fsCache, "fscache", 64<<20, "page-cache capacity in bytes (with -fs)")
	fl.StringVar(&c.journal, "journal", "none", "fsync journal mode: none | ordered | log (implies a filesystem layer)")
	fl.IntVar(&c.syncRatio, "syncratio", 0, "issue one fsync per N writes (0 = never)")
	fl.BoolVar(&c.breakdown, "breakdown", false, "print the per-phase latency breakdown table")
	fl.StringVar(&c.traceJSON, "trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	fl.StringVar(&c.seriesOut, "series", "", "write the sampled gauge time series (1ms buckets) as CSV to this file")
	if err := fl.Parse(args); err != nil {
		return nil, err
	}
	if c.mixWrite < 0 || c.mixWrite > 100 {
		return nil, fmt.Errorf("-rwmixwrite %d out of range: want a write percentage in 0-100", c.mixWrite)
	}
	if c.syncRatio < 0 {
		return nil, fmt.Errorf("-syncratio %d out of range: want 0 (never) or a positive write count", c.syncRatio)
	}
	if c.bs <= 0 {
		return nil, fmt.Errorf("-bs %d out of range: want a positive block size in bytes", c.bs)
	}
	if c.ios < 0 {
		return nil, fmt.Errorf("-ios %d out of range: want 0 (use -runtime) or a positive I/O count", c.ios)
	}
	if c.runtime < 0 {
		return nil, fmt.Errorf("-runtime %v out of range: want 0 (use -ios) or a positive duration", c.runtime)
	}
	if c.depth < 1 {
		return nil, fmt.Errorf("-iodepth %d out of range: want at least 1", c.depth)
	}
	if c.precond < 0 || c.precond > 1 {
		return nil, fmt.Errorf("-precondition %g out of range: want a fraction in 0-1", c.precond)
	}
	return c, nil
}

// journalMode maps the -journal flag.
func journalMode(name string) (repro.JournalMode, error) {
	switch name {
	case "none":
		return repro.NoJournal, nil
	case "ordered":
		return repro.OrderedJournal, nil
	case "log":
		return repro.LogStructured, nil
	default:
		return 0, fmt.Errorf("unknown journal mode %q (want none, ordered, or log)", name)
	}
}

// stackFor maps the -engine/-completion flags onto the stack layer.
func stackFor(engine, completion string) (repro.StackLayer, error) {
	var st repro.StackLayer
	switch engine {
	case "pvsync2":
		st.Kind = repro.KernelSync
		switch completion {
		case "interrupt":
			st.Mode = repro.Interrupt
		case "poll":
			st.Mode = repro.Poll
		case "hybrid":
			st.Mode = repro.Hybrid
		default:
			return st, fmt.Errorf("unknown completion %q", completion)
		}
	case "libaio":
		st.Kind = repro.KernelAsync
	case "io_uring":
		st.Kind = repro.IOUring
		st.Uring = &repro.UringConfig{}
		switch completion {
		case "interrupt":
			st.Uring.Mode = repro.UringInterrupt
		case "poll":
			st.Uring.Mode = repro.UringPoll
		case "hybrid":
			st.Uring.Mode = repro.UringHybrid
		case "sqpoll":
			st.Uring.Mode = repro.UringSQPoll
		default:
			return st, fmt.Errorf("unknown completion %q (io_uring: interrupt, poll, hybrid, or sqpoll)", completion)
		}
	case "spdk":
		st.Kind = repro.SPDK
	default:
		return st, fmt.Errorf("unknown engine %q (want pvsync2, libaio, io_uring, or spdk)", engine)
	}
	return st, nil
}

func deviceConfig(name string) (repro.DeviceConfig, error) {
	switch name {
	case "ull", "zssd":
		return repro.ZSSD(), nil
	case "nvme", "750":
		return repro.NVMe750(), nil
	default:
		return repro.DeviceConfig{}, fmt.Errorf("unknown device %q (want ull or nvme)", name)
	}
}

// topology lowers the parsed flags into the layer graph: one stack over
// one device, optionally under a filesystem layer.
func (c *config) topology() (repro.Topology, error) {
	dev, err := deviceConfig(c.dev)
	if err != nil {
		return repro.Topology{}, err
	}
	stack, err := stackFor(c.engine, c.completion)
	if err != nil {
		return repro.Topology{}, err
	}
	mode, err := journalMode(c.journal)
	if err != nil {
		return repro.Topology{}, err
	}
	stack.Queue.Device = dev
	cores := 0
	if stack.Uring != nil && stack.Uring.Mode == repro.UringSQPoll {
		// The SQ thread pins its own core beside the submitter's.
		cores = 2
	}
	var root repro.Layer = stack
	if c.fsOn || mode != repro.NoJournal {
		fcfg := repro.FSConfig{Journal: mode}
		if c.fsOn {
			fcfg.CacheBytes = c.fsCache
			// The kernel's default 128KiB readahead window, in pages.
			fcfg.ReadaheadPages = 32
		}
		root = repro.FSOn(fcfg, root)
	}
	return repro.Topology{Root: root, Cores: cores, Precondition: c.precond}, nil
}

// job assembles the workload description.
func (c *config) job() (repro.Job, error) {
	job := repro.Job{
		Spec: repro.Spec{
			BlockSize: c.bs,
			TotalIOs:  c.ios,
			Duration:  repro.Time(c.runtime.Nanoseconds()),
			WarmupIOs: c.ios / 10,
			SyncEvery: c.syncRatio,
			Seed:      c.seed,
		},
		QueueDepth: c.depth,
	}
	switch c.rw {
	case "read":
		job.Pattern = repro.SeqRead
	case "randread":
		job.Pattern = repro.RandRead
	case "write":
		job.Pattern = repro.SeqWrite
	case "randwrite":
		job.Pattern = repro.RandWrite
	case "randrw":
		job.Pattern = repro.RandRW
		job.WriteFraction = float64(c.mixWrite) / 100
	default:
		return job, fmt.Errorf("unknown rw %q", c.rw)
	}
	if job.TotalIOs == 0 && job.Duration == 0 {
		job.TotalIOs = 10000
		job.WarmupIOs = 1000
	}
	return job, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0 // -h is a successful help request, as with ExitOnError
		}
		fmt.Fprintf(stderr, "fioemu: %v\n", err)
		return 2
	}
	topo, err := c.topology()
	if err != nil {
		fmt.Fprintf(stderr, "fioemu: %v\n", err)
		return 2
	}
	job, err := c.job()
	if err != nil {
		fmt.Fprintf(stderr, "fioemu: %v\n", err)
		return 2
	}
	// A passthrough FS config lowers to the bare serial stack, so the
	// wrap only lifts the depth restriction when a real layer is built.
	wrapped := false
	if fsl, ok := topo.Root.(repro.FSLayer); ok {
		wrapped = !fsl.Config.Passthrough()
	}
	if c.engine == "pvsync2" && c.depth != 1 && !wrapped {
		fmt.Fprintln(stderr, "fioemu: pvsync2 is synchronous; use -iodepth 1, -engine libaio/spdk, or -fs (the filesystem layer absorbs concurrency)")
		return 2
	}

	// Observability flags configure the probe the build attaches; the
	// default is restored so repeated runs in one process stay isolated.
	pcfg := repro.ProbeConfig{
		Breakdown: c.breakdown,
		Trace:     c.traceJSON != "",
	}
	if c.seriesOut != "" {
		pcfg.Sample = repro.Millisecond
	}
	prevProbe := repro.ProbeDefault()
	repro.SetProbeDefault(pcfg)
	defer repro.SetProbeDefault(prevProbe)

	g := repro.BuildTopology(topo)
	// Confine I/O to the preconditioned region so reads touch media.
	if c.precond > 0 {
		job.Region = int64(c.precond*float64(g.ExportedBytes())) >> 20 << 20
	}
	if c.traceOut != "" {
		job.Trace = trace.NewRecorder()
	}

	start := time.Now()
	var res *repro.Result
	if c.replay != "" {
		res, err = replayTrace(g, c.replay)
		if err != nil {
			fmt.Fprintf(stderr, "fioemu: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "replayed %d events from %s\n", res.IOs, c.replay)
	} else {
		res = repro.RunJob(g, job)
	}
	elapsed := time.Since(start)

	if job.Trace != nil {
		f, err := os.Create(c.traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "fioemu: %v\n", err)
			return 1
		}
		if err := job.Trace.WriteCSV(f); err != nil {
			fmt.Fprintf(stderr, "fioemu: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "fioemu: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d events written to %s\n", job.Trace.Len(), c.traceOut)
	}

	s := res.All.Summarize()
	fmt.Fprintf(stdout, "%s: %s bs=%d depth=%d engine=%s\n", c.dev, c.rw, c.bs, c.depth, c.engine)
	if c.engine == "pvsync2" || c.engine == "io_uring" {
		fmt.Fprintf(stdout, "  completion=%s\n", c.completion)
	}
	fmt.Fprintf(stdout, "  ios=%d bw=%.1f MB/s iops=%.0f\n", res.IOs, res.BandwidthMBps(), res.IOPS())
	fmt.Fprintf(stdout, "  lat (us): mean=%.2f p50=%.2f p99=%.2f p99.99=%.2f p99.999=%.2f max=%.2f\n",
		s.Mean.Micros(), s.P50.Micros(), s.P99.Micros(), s.P9999.Micros(), s.P5N.Micros(), s.Max.Micros())
	if res.Read.Count() > 0 && res.Write.Count() > 0 {
		fmt.Fprintf(stdout, "  read lat mean=%.2fus (n=%d)  write lat mean=%.2fus (n=%d)\n",
			res.Read.Mean().Micros(), res.Read.Count(),
			res.Write.Mean().Micros(), res.Write.Count())
	}
	if res.Fsyncs > 0 {
		fs := res.Fsync.Summarize()
		fmt.Fprintf(stdout, "  fsync (us): n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f\n",
			res.Fsyncs, fs.Mean.Micros(), fs.P50.Micros(), fs.P99.Micros(), fs.Max.Micros())
	}
	for _, st := range g.FSStats() {
		total := st.Hits + st.Misses
		hitPct := 0.0
		if total > 0 {
			hitPct = 100 * float64(st.Hits) / float64(total)
		}
		fmt.Fprintf(stdout, "  fs: journal=%s cache hit=%.1f%% (%d/%d) wb pages=%d barriers=%d jwrites=%d\n",
			c.journal, hitPct, st.Hits, total, st.WritebackPages, st.Barriers, st.JournalWrites)
	}
	u := g.CPU().Utilization(g.Engine().Now())
	fmt.Fprintf(stdout, "  cpu: user=%.1f%% kernel=%.1f%% idle=%.1f%%", u.User, u.Kernel, u.Idle)
	// On the one-core model, demand above the core shows as raw
	// over-subscription (the aggregate of a real multi-core set reports
	// its demand in the cores line instead).
	if g.CoreSet().N() == 1 && u.Oversub > 1 {
		fmt.Fprintf(stdout, " oversub=%.2fx", u.Oversub)
	}
	fmt.Fprintln(stdout)
	if cs := g.CoreSet(); cs.N() > 1 {
		fmt.Fprintf(stdout, "  cores: %d (%.2f busy)", cs.N(), cs.BusyCores(g.Engine().Now()))
		for i, cu := range cs.Utilization(g.Engine().Now()) {
			pin := ""
			if cs.Pinned(i) {
				pin = " pinned"
			}
			fmt.Fprintf(stdout, " [%d%s: %.1f%% busy]", i, pin, 100-cu.Idle)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "  device power: %.2f W avg\n", g.Devices()[0].Meter().AvgWatts(g.Engine().Now()))
	fmt.Fprintf(stdout, "  simulated %v in %v wall\n", g.Engine().Now(), elapsed.Round(time.Millisecond))

	if c.breakdown {
		if err := g.Probe().Breakdown().WriteTable(stdout); err != nil {
			fmt.Fprintf(stderr, "fioemu: %v\n", err)
			return 1
		}
	}
	if c.traceJSON != "" {
		if err := writeFile(c.traceJSON, func(f *os.File) error {
			return repro.WriteTrace(f, g.Probe())
		}); err != nil {
			fmt.Fprintf(stderr, "fioemu: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: Chrome trace-event JSON written to %s\n", c.traceJSON)
	}
	if c.seriesOut != "" {
		if err := writeFile(c.seriesOut, func(f *os.File) error {
			return g.Probe().WriteSeriesCSV(f)
		}); err != nil {
			fmt.Fprintf(stderr, "fioemu: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "series: gauge samples written to %s\n", c.seriesOut)
	}
	return 0
}

// writeFile creates path, runs write against it, and closes it, keeping
// the first error.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayTrace re-issues a recorded trace against the built system and
// synthesizes a Result from the replayed latencies.
func replayTrace(g *repro.TopologySystem, path string) (*repro.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := trace.ReadCSV(f)
	if err != nil {
		return nil, err
	}
	out := trace.NewRecorder()
	trace.Replay(g.Engine(), g, events, out)
	g.Engine().Run()
	g.Finalize()
	res := &repro.Result{}
	for _, e := range out.Events() {
		res.All.Record(e.Latency)
		if e.Write {
			res.Write.Record(e.Latency)
		} else {
			res.Read.Record(e.Latency)
		}
		res.Bytes += int64(e.Len)
		res.IOs++
		if end := e.Issue + e.Latency; end > res.Wall {
			res.Wall = end
		}
	}
	return res, nil
}
