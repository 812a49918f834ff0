// Tail latency: the paper's QoS angle — five-nines percentiles across
// devices (Figure 4b) and the polling tail inversion (Figure 11): polling
// wins the average but loses the 99.999th percentile.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro"
)

func main() {
	deviceTails()
	pollInversion()
}

func deviceTails() {
	fmt.Println("== Device latency distributions, 4KB random reads (QD4, libaio) ==")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "device\tmean\tp99\tp99.99\tp99.999\tmax")
	for _, dev := range []struct {
		name string
		cfg  repro.DeviceConfig
	}{{"ULL", repro.ZSSD()}, {"NVMe", repro.NVMe750()}} {
		sys := repro.BuildTopology(repro.Topology{
			Root:         repro.StackOn(repro.KernelAsync, 0, dev.cfg),
			Precondition: 1.0,
		})
		res := repro.RunJob(sys, repro.Job{
			Spec: repro.Spec{
				Pattern:   repro.RandRead,
				BlockSize: 4096,
				TotalIOs:  120000,
				WarmupIOs: 12000,
				Seed:      9,
			},
			QueueDepth: 4,
		})
		s := res.All.Summarize()
		fmt.Fprintf(w, "%s\t%.1fus\t%.1fus\t%.1fus\t%.1fus\t%.1fus\n",
			dev.name, s.Mean.Micros(), s.P99.Micros(), s.P9999.Micros(),
			s.P5N.Micros(), s.Max.Micros())
	}
	w.Flush()
	fmt.Println("The ULL tail stays within a few hundred microseconds (firmware")
	fmt.Println("checkpoints); the conventional SSD's stretches into milliseconds.")
	fmt.Println()
}

func pollInversion() {
	fmt.Println("== The polling tail inversion (Figure 11), ULL 4KB random reads ==")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "completion\tmean\tp99.999")
	stats := map[string]repro.Summary{}
	for _, m := range []struct {
		name  string
		stack repro.StackLayer
	}{
		{"interrupt", repro.StackOn(repro.KernelSync, repro.Interrupt, repro.ZSSD())},
		{"poll", repro.StackOn(repro.KernelSync, repro.Poll, repro.ZSSD())},
	} {
		sys := repro.BuildTopology(repro.Topology{Root: m.stack, Precondition: 1.0})
		res := repro.RunJob(sys, repro.Job{
			Spec: repro.Spec{
				Pattern:   repro.RandRead,
				BlockSize: 4096,
				TotalIOs:  120000,
				WarmupIOs: 12000,
				Seed:      9,
			},
		})
		s := res.All.Summarize()
		stats[m.name] = s
		fmt.Fprintf(w, "%s\t%.2fus\t%.1fus\n", m.name, s.Mean.Micros(), s.P5N.Micros())
	}
	w.Flush()
	meanGain := 100 * float64(stats["interrupt"].Mean-stats["poll"].Mean) / float64(stats["interrupt"].Mean)
	tailLoss := 100 * float64(stats["poll"].P5N-stats["interrupt"].P5N) / float64(stats["interrupt"].P5N)
	fmt.Printf("Polling wins the mean by %.1f%% but loses the five-nines by %.1f%%:\n", meanGain, tailLoss)
	fmt.Println("a spinning poller absorbs the deferred kernel work an idle core")
	fmt.Println("would have soaked up, exactly when the device is at its slowest.")
}
