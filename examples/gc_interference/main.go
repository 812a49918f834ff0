// GC and interference: the paper's Section IV-D — do ULL SSDs suffer the
// classic flash critical paths? This example reproduces both halves at
// small scale: read/write interference (Figure 6) and the garbage
// collection cliff (Figure 7b).
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro"
)

func main() {
	interference()
	gcCliff()
}

// interference mixes writes into a random-read stream and watches what
// happens to the reads.
func interference() {
	fmt.Println("== Read/write interference (Figure 6) ==")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "write%\tULL read lat\tNVMe read lat\tULL p99.999\tNVMe p99.999")
	for _, frac := range []float64{0, 0.2, 0.4, 0.8} {
		row := make(map[string]*repro.Result)
		for _, dev := range []struct {
			name string
			cfg  repro.DeviceConfig
		}{{"ULL", repro.ZSSD()}, {"NVMe", repro.NVMe750()}} {
			sys := repro.BuildTopology(repro.Topology{
				Root:         repro.StackOn(repro.KernelAsync, 0, dev.cfg),
				Precondition: 1.0,
			})
			row[dev.name] = repro.RunJob(sys, repro.Job{
				Spec: repro.Spec{
					Pattern:       repro.RandRW,
					WriteFraction: frac,
					BlockSize:     4096,
					TotalIOs:      20000,
					WarmupIOs:     2000,
					Seed:          3,
				},
				QueueDepth: 4,
			})
		}
		fmt.Fprintf(w, "%.0f\t%.1fus\t%.1fus\t%.1fus\t%.1fus\n",
			frac*100,
			row["ULL"].Read.Mean().Micros(),
			row["NVMe"].Read.Mean().Micros(),
			row["ULL"].Read.Percentile(99.999).Micros(),
			row["NVMe"].Read.Percentile(99.999).Micros())
	}
	w.Flush()
	fmt.Println("Suspend/resume and fast programs keep the ULL reads flat;")
	fmt.Println("on the conventional SSD 20% writes already ruin the read tail.")
	fmt.Println()
}

// gcCliff preconditions the whole device and keeps overwriting until
// garbage collection starts.
func gcCliff() {
	fmt.Println("== Garbage-collection cliff (Figure 7b) ==")
	for _, dev := range []struct {
		name string
		cfg  repro.DeviceConfig
		dur  repro.Time
	}{
		{"NVMe", repro.NVMe750(), 400 * repro.Millisecond},
		{"ULL", repro.ZSSD(), 250 * repro.Millisecond},
	} {
		sys := repro.BuildTopology(repro.Topology{
			Root:         repro.StackOn(repro.KernelAsync, 0, dev.cfg),
			Precondition: 1.0,
		})
		res := repro.RunJob(sys, repro.Job{
			Spec: repro.Spec{
				Pattern:      repro.RandWrite,
				BlockSize:    4096,
				Duration:     dev.dur,
				Seed:         5,
				SeriesBucket: dev.dur / 10,
			},
			QueueDepth: 8,
		})
		st := sys.Devices()[0].Stats()
		fmt.Printf("%s: sustained 4KB random writes for %v\n", dev.name, dev.dur)
		for _, p := range res.WriteSeries.Points() {
			if p.Count == 0 {
				continue
			}
			bar := int(p.Mean / 4)
			if bar > 60 {
				bar = 60
			}
			fmt.Printf("  t=%6.0fms  %7.1fus  %s\n", p.T.Millis(), p.Mean, bars(bar))
		}
		fmt.Printf("  GC: %d runs, %d migrated slots, %d erases, %d host stalls\n\n",
			st.GCRuns, st.GCMigrations, st.FlashErases, st.WriteStalls)
	}
	fmt.Println("The NVMe latency steps up once reclaim begins; the ULL device")
	fmt.Println("absorbs GC with parallel reclaim and program suspend/resume.")
}

func bars(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
