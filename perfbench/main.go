// Command perfbench is the simulator's end-to-end benchmark. It runs one
// workload for a fixed host time, checks the simulated results against
// their digests, and prints one JSON line of metrics: end-to-end metrics
// from untraced runs (--trace 0), per-layer metrics from a traced run
// (--trace 1).
//
//	perfbench --workload gc-steady --seed 7 --seconds 20 --trace 0
//
// Every host-time number is the simulator's own wall or CPU time; every
// sim-time number is modelled time. The model has no hardware reference
// in the repository, so no accuracy figure is reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced metrics, reported on every workload. On
// sweep-setup a point is one sweep point, set-up included; on gc-steady
// and kv-mixed the long run is the one point, set-up excluded.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"point_p50_ms", "ms", "lower"},
	{"point_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// hostPackages are the packages host self time is attributed to.
var hostPackages = []string{
	"sim", "flash", "ssd", "nvme", "kernel", "spdk", "uring", "cpu", "fs",
	"kv", "core", "workload", "orchestrator", "probe", "metrics", "trace",
	"detutil", "perfbench", "runtime", "other",
}

// perLayer lists the traced metrics in report order.
func perLayer() []metricDef {
	defs := []metricDef{
		{"core.build_s", "s", "lower"},
		{"core.builds", "count", "lower"},
	}
	for _, d := range sweepDevices {
		defs = append(defs,
			metricDef{"ssd.new_device_ms." + d.name, "ms", "lower"},
			metricDef{"ssd.precondition_ms." + d.name, "ms", "lower"},
			metricDef{"ssd.heap_mb." + d.name, "MB", "lower"})
	}
	defs = append(defs,
		metricDef{"workload.run_s", "s", "lower"},
		metricDef{"workload.ops", "count", "higher"},
		metricDef{"sim.events", "count", "lower"},
		metricDef{"sim.ns_per_event", "ns", "lower"},
		metricDef{"ssd.host_writes", "count", "lower"},
		metricDef{"ssd.flash_programs", "count", "lower"},
		metricDef{"ssd.gc_migrations", "count", "lower"},
		metricDef{"ssd.erases", "count", "lower"},
		metricDef{"ssd.write_amp", "ratio", "lower"},
		metricDef{"ssd.cache_hits", "count", "higher"},
		metricDef{"ssd.write_stalls", "count", "lower"},
		metricDef{"flash.busy_frac", "frac", "lower"},
		metricDef{"flash.suspends", "count", "lower"},
		metricDef{"cpu.queued", "count", "lower"},
		metricDef{"cpu.queue_wait_us", "us", "lower"},
		metricDef{"fs.hit_ratio", "frac", "higher"},
		metricDef{"fs.writeback_pages", "count", "lower"},
		metricDef{"fs.journal_writes", "count", "lower"},
		metricDef{"fs.barriers", "count", "lower"},
		metricDef{"kv.wal_syncs", "count", "lower"},
		metricDef{"kv.puts_per_wal_sync", "ratio", "higher"},
		metricDef{"kv.flushes", "count", "lower"},
		metricDef{"kv.compactions", "count", "lower"},
		metricDef{"kv.compact_mb", "MB", "lower"},
		metricDef{"kv.stall_mb", "MB", "lower"},
		metricDef{"kv.block_reads", "count", "lower"},
		metricDef{"orchestrator.busy_frac", "frac", "higher"},
		metricDef{"probe.overhead_ratio", "ratio", "lower"},
	)
	for _, ph := range phaseNames() {
		defs = append(defs, metricDef{"phase." + ph + ".share", "frac", "lower"})
	}
	for _, pkg := range hostPackages {
		defs = append(defs, metricDef{"host.self." + pkg, "frac", "lower"})
	}
	return defs
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minReps is the fewest repetitions a run makes, so every run checks
// that a repetition reproduces the digests of the first.
const minReps = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the command line: it parses args, writes the result to stdout
// and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: sweep-setup, gc-steady or kv-mixed")
	seed := fl.Uint64("seed", defaultSeed, "workload seed")
	seconds := fl.Int("seconds", 20, "host seconds to measure for")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	size := fl.String("scale", fullScale.name, "workload size: full, or tiny for a quick smoke run")
	pin := fl.Bool("pin", false, "rewrite "+digestFile+" from one run of each workload at the default seed")
	one := fl.Bool("rep", false, "run one untraced repetition and print it as JSON")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *pin {
		if err := writePinned(digestFile); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := findWorkload(*name)
	sc, okScale := findScale(*size)
	if !ok || !okScale || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {sweep-setup|gc-steady|kv-mixed} --seconds N>=1 --trace {0|1} [--scale {full|tiny}]")
		return 2
	}
	if *one {
		if err := json.NewEncoder(stdout).Encode(w.run(*seed, sc)); err != nil {
			return fail(err)
		}
		return 0
	}
	ref, err := reference(w.name, *seed, sc)
	if err != nil {
		return fail(err)
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = traced(w, *seed, sc, budget, ref)
	} else {
		res = untraced(w.name, budget, ref, func() rep { return childRep(w, *seed, sc) })
	}
	if err != nil {
		return fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// reference returns the checker for a run: seeded with the pinned
// digests at the default seed and full scale, empty (the first
// repetition is the reference) otherwise.
func reference(workload string, seed uint64, sc scale) (*checker, error) {
	if seed != defaultSeed || sc.name != fullScale.name {
		return &checker{}, nil
	}
	p, err := loadPinned(digestFile)
	if err != nil {
		return nil, err
	}
	want, ok := p[workload]
	if !ok {
		return nil, fmt.Errorf("%s has no digests for %s", digestFile, workload)
	}
	return &checker{want: want}, nil
}

// writePinned runs every workload once at the default seed and full
// scale and writes their digests.
func writePinned(path string) error {
	p := pinned{}
	for _, w := range workloads {
		r := w.run(defaultSeed, fullScale)
		p[w.name] = map[string]string{}
		for _, pt := range r.Points {
			if pt.Err != "" {
				return fmt.Errorf("%s %s: %s", w.name, pt.Key, pt.Err)
			}
			p[w.name][pt.Key] = pt.Digest
		}
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// repeat calls once until budget has passed and at least min
// repetitions are done, checking every repetition's digests.
func repeat(name string, budget time.Duration, min int, ref *checker, once func() rep, each func(*rep)) (attempted, failed int) {
	start := time.Now()
	for n := 0; n < min || time.Since(start) < budget; n++ {
		r := once()
		ref.check(&r)
		attempted += len(r.Points)
		failed += r.failed()
		for _, p := range r.Points {
			if p.Err != "" {
				fmt.Fprintf(os.Stderr, "perfbench: %s %s failed: %s\n", name, p.Key, p.Err)
			}
		}
		each(&r)
	}
	return attempted, failed
}

// untraced measures the end-to-end metrics over repetitions made by
// once: medians over repetitions, except for the point percentiles,
// which are taken over points of each point's median host time.
func untraced(name string, budget time.Duration, ref *checker, once func() rep) result {
	var wall, setup, rss []float64
	host := map[string][]float64{}
	att, failed := repeat(name, budget, minReps, ref, once, func(r *rep) {
		if r.Wall == 0 {
			return // the repetition never ran
		}
		wall = append(wall, r.Wall.Seconds())
		setup = append(setup, r.Setup.Seconds())
		rss = append(rss, r.PeakRSS)
		for _, p := range r.Points {
			if p.Err == "" {
				host[p.Key] = append(host[p.Key], float64(p.Host)/float64(time.Millisecond))
			}
		}
	})
	var pts []float64
	for _, xs := range host {
		pts = append(pts, median(xs))
	}
	m := map[string]metric{
		"wall_s":       {median(wall), "s"},
		"setup_s":      {median(setup), "s"},
		"point_p50_ms": {hdQuantile(pts, 0.5), "ms"},
		"point_p90_ms": {hdQuantile(pts, 0.9), "ms"},
		"peak_rss_mb":  {median(rss), "MB"},
	}
	return result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: m}
}

// childRep runs one repetition of w in a fresh process of this program,
// so each repetition reports its own peak resident set.
func childRep(w benchWorkload, seed uint64, sc scale) rep {
	var r rep
	exe, err := os.Executable()
	if err == nil {
		cmd := exec.Command(exe, "--rep", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10), "--scale", sc.name)
		cmd.Stderr = os.Stderr
		var out []byte
		if out, err = cmd.Output(); err == nil {
			err = json.Unmarshal(out, &r)
		}
		if err == nil {
			r.PeakRSS = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024 // KiB on Linux
		}
	}
	if err != nil {
		return rep{Points: []point{{Key: "rep", Err: fmt.Sprintf("repetition process: %v", err)}}}
	}
	return r
}

// median is the Harrell-Davis median of xs; 0 when empty.
func median(xs []float64) float64 { return hdQuantile(xs, 0.5) }

// hdQuantile is the Harrell-Davis estimate of the p-quantile (0 < p < 1):
// the mean of the order statistics weighted by a Beta((n+1)p, (n+1)(1-p))
// density over their ranks. Where the sample has a gap a single order
// statistic jumps across it; this estimate moves smoothly. The sweep's
// points have such a gap at their median, between the fast NVMe750
// points and the slow Z-SSD points. On the few repetitions of one run it
// also varies less than the sample median.
func hdQuantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := p*(n+1), (1-p)*(n+1)
	const steps = 32 // midpoint-rule samples per rank
	logw := func(i, k int) float64 {
		x := (float64(i) + (float64(k)+0.5)/steps) / n
		return (a-1)*math.Log(x) + (b-1)*math.Log1p(-x)
	}
	peak := math.Inf(-1)
	for i := range s {
		for k := 0; k < steps; k++ {
			peak = math.Max(peak, logw(i, k))
		}
	}
	var sum, norm float64
	for i, x := range s {
		var w float64
		for k := 0; k < steps; k++ {
			w += math.Exp(logw(i, k) - peak)
		}
		sum += w * x
		norm += w
	}
	return sum / norm
}
