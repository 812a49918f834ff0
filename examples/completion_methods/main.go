// Completion methods: the paper's Section V question — is polling faster
// than interrupts, and is hybrid polling a good compromise? — answered on
// both simulated devices across block sizes.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro"
)

func main() {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "device\tblock\tinterrupt\tpoll\thybrid\tpoll saves\tcpu(int)\tcpu(poll)\tcpu(hybrid)")

	for _, dev := range []struct {
		name string
		cfg  repro.DeviceConfig
	}{
		{"ULL", repro.ZSSD()},
		{"NVMe", repro.NVMe750()},
	} {
		for _, bs := range []int{4096, 16384} {
			type out struct {
				lat  repro.Time
				busy float64
			}
			results := map[string]out{}
			for _, m := range []struct {
				label string
				stack repro.StackLayer
			}{
				{"interrupt", repro.StackOn(repro.KernelSync, repro.Interrupt, dev.cfg)},
				{"poll", repro.StackOn(repro.KernelSync, repro.Poll, dev.cfg)},
				{"hybrid", repro.StackOn(repro.KernelSync, repro.Hybrid, dev.cfg)},
			} {
				sys := repro.BuildTopology(repro.Topology{Root: m.stack, Precondition: 1.0})
				res := repro.RunJob(sys, repro.Job{
					Spec: repro.Spec{
						Pattern:   repro.RandRead,
						BlockSize: bs,
						TotalIOs:  20000,
						WarmupIOs: 2000,
						Seed:      7,
					},
				})
				u := sys.CPU().Utilization(sys.Engine().Now())
				results[m.label] = out{res.All.Mean(), u.User + u.Kernel}
			}
			saves := 100 * float64(results["interrupt"].lat-results["poll"].lat) /
				float64(results["interrupt"].lat)
			fmt.Fprintf(w, "%s\t%dKB\t%.2fus\t%.2fus\t%.2fus\t%.1f%%\t%.0f%%\t%.0f%%\t%.0f%%\n",
				dev.name, bs>>10,
				results["interrupt"].lat.Micros(),
				results["poll"].lat.Micros(),
				results["hybrid"].lat.Micros(),
				saves,
				results["interrupt"].busy, results["poll"].busy, results["hybrid"].busy)
		}
	}
	w.Flush()
	fmt.Println()
	fmt.Println("The paper's finding: polling buys ~2us on the ULL SSD (worth 16%)")
	fmt.Println("but burns the whole core; hybrid polling sleeps half the mean and")
	fmt.Println("lands between the two on CPU — and behind classic polling on latency.")
}
