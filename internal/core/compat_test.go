package core_test

// The fixed-seed compatibility guard for the topology redesign: a
// one-device system is built by lowering one Stack onto the layer
// graph, and these goldens — captured from the direct wiring the graph
// replaced — pin the lowering to bit-exact equivalence. Any drift in
// construction order, seeding, or event scheduling shows up here as a
// changed latency integral.
//
// Every case also pins each CPU function's counters (time, loads,
// stores, calls) after Finalize, so a refactor of the host stacks that
// merges or splits a charge, reorders an event, or changes how a spin
// is settled fails here in seconds instead of in the registry lane.
//
// (This file lives in package core_test because it drives the system
// through the workload engine, which imports core.)

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/ssd"
	"repro/internal/uring"
	"repro/internal/workload"
)

func TestStackCompatGoldens(t *testing.T) {
	type tc struct {
		name  string
		stack core.StackKind
		mode  kernel.Mode
		umode uring.Mode
		qd    int
		nvme  bool // NVMe750 instead of ZSSD

		// Goldens: nanosecond-exact values recorded from the pre-redesign
		// direct wiring (mean, p99, read mean, write mean, wall); the
		// io_uring rows were recorded later, from the stacks as they
		// stood before they shared nvme.Ledger.
		mean, p99, readMean, writeMean, wall int64
	}
	cases := []tc{
		{"zssd-sync-int", core.KernelSync, kernel.Interrupt, 0, 1, false, 14351, 16786, 15665, 11404, 8610814},
		{"zssd-sync-poll", core.KernelSync, kernel.Poll, 0, 1, false, 12370, 17919, 13695, 9397, 7422300},
		{"zssd-sync-hybrid", core.KernelSync, kernel.Hybrid, 0, 1, false, 13075, 20479, 13857, 11320, 7845342},
		{"zssd-async", core.KernelAsync, 0, 0, 8, false, 14992, 20479, 16415, 11802, 1124407},
		{"zssd-spdk", core.SPDK, 0, 0, 4, false, 12619, 16895, 14008, 9502, 1896240},
		{"nvme750-async", core.KernelAsync, 0, 0, 8, true, 125255, 753663, 175079, 13487, 9967405},
		{"zssd-uring-int", core.IOUring, 0, uring.Interrupt, 8, false, 14994, 19967, 16369, 11910, 1123860},
		{"zssd-uring-poll", core.IOUring, 0, uring.Poll, 4, false, 12439, 16127, 13821, 9338, 1869200},
		{"zssd-uring-hybrid", core.IOUring, 0, uring.Hybrid, 1, false, 12561, 14079, 13216, 11090, 7536800},
		{"zssd-uring-sqpoll", core.IOUring, 0, uring.SQPoll, 4, false, 12503, 16383, 13902, 9362, 1878840},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dev := ssd.ZSSD()
			if c.nvme {
				dev = ssd.NVMe750()
			}
			dev.Seed ^= 0xd5eed
			g := core.Build(core.Topology{
				Root: core.Stack{Kind: c.stack, Mode: c.mode,
					Uring: &uring.Config{Mode: c.umode}, Queue: core.Queue{Device: dev}},
				Precondition: 0.9,
			})
			region := int64(0.9*float64(g.ExportedBytes())) >> 20 << 20
			res := workload.Run(g, workload.Job{
				Spec: workload.Spec{
					Pattern:       workload.RandRW,
					WriteFraction: 0.3,
					BlockSize:     4096,
					TotalIOs:      600,
					WarmupIOs:     60,
					Region:        region,
					Seed:          0x70b0,
				},
				QueueDepth: c.qd,
			})
			got := [5]int64{
				int64(res.All.Mean()), int64(res.All.Percentile(99)),
				int64(res.Read.Mean()), int64(res.Write.Mean()), int64(res.Wall),
			}
			want := [5]int64{c.mean, c.p99, c.readMean, c.writeMean, c.wall}
			if got != want {
				t.Errorf("fixed-seed output drifted from the pre-redesign wiring:\n got %v\nwant %v", got, want)
			}

			// Every function's counters, including the all-zero ones.
			wantFns := fnGoldens[c.name]
			for fn := cpu.Fn(0); fn < cpu.NumFns; fn++ {
				a := g.CPU().Acct(fn)
				got := fmt.Sprintf("%d/%d/%d/%d", a.Time, a.Loads, a.Stores, a.Calls)
				want, ok := wantFns[fn.String()]
				if !ok {
					want = "0/0/0/0"
				}
				if got != want {
					t.Errorf("%v counters (time/loads/stores/calls) drifted:\n got %s\nwant %s", fn, got, want)
				}
			}
		})
	}
}

// fnGoldens holds each case's nonzero per-function counters as
// "time/loads/stores/calls", recorded after Finalize; every function
// not listed must read all zeros.
var fnGoldens = map[string]map[string]string{
	"zssd-sync-int": {
		"app_user":       "660000/211200/99000/660",
		"syscall":        "79200/39600/26400/1320",
		"vfs":            "118800/85800/39600/660",
		"blk_mq_submit":  "99000/72600/46200/660",
		"nvme_driver":    "79200/46200/49500/660",
		"isr":            "264000/79200/39600/660",
		"context_switch": "330000/59400/52800/660",
	},
	"zssd-sync-poll": {
		"app_user":      "660000/211200/99000/660",
		"syscall":       "79200/39600/26400/1320",
		"vfs":           "118800/85800/39600/660",
		"blk_mq_submit": "99000/72600/46200/660",
		"nvme_driver":   "79200/46200/49500/660",
		"blk_mq_poll":   "5681360/816992/315088/1320",
		"nvme_poll":     "1377440/344360/68872/660",
		"other":         "64000/320/160/8",
	},
	"zssd-sync-hybrid": {
		"app_user":      "660000/211200/99000/660",
		"syscall":       "79200/39600/26400/1320",
		"vfs":           "118800/85800/39600/660",
		"blk_mq_submit": "99000/72600/46200/660",
		"nvme_driver":   "79200/46200/49500/660",
		"blk_mq_poll":   "1151200/194095/88580/1320",
		"nvme_poll":     "244900/61225/12245/660",
		"hrtimer":       "527200/98850/65900/1318",
		"other":         "16000/80/40/2",
	},
	"zssd-async": {
		"app_user":       "660000/211200/99000/660",
		"syscall":        "79200/39600/26400/660",
		"vfs":            "118800/85800/39600/660",
		"blk_mq_submit":  "99000/72600/46200/660",
		"nvme_driver":    "79200/46200/49500/660",
		"isr":            "264000/79200/39600/660",
		"context_switch": "330000/59400/52800/660",
	},
	"zssd-spdk": {
		"app_user":                            "660000/211200/99000/660",
		"spdk_submit":                         "250800/59400/62700/660",
		"spdk_nvme_qpair_process_completions": "697740/847665/403560/661",
		"nvme_pcie_qpair_process_completions": "377160/471450/330015/1",
		"nvme_qpair_check_enabled":            "201780/454005/20178/661",
	},
	"nvme750-async": {
		"app_user":       "660000/211200/99000/660",
		"syscall":        "79200/39600/26400/660",
		"vfs":            "118800/85800/39600/660",
		"blk_mq_submit":  "99000/72600/46200/660",
		"nvme_driver":    "79200/46200/49500/660",
		"isr":            "264000/79200/39600/660",
		"context_switch": "330000/59400/52800/660",
	},
	"zssd-uring-int": {
		"app_user":        "231000/66000/46200/660",
		"syscall":         "127500/40800/25500/510",
		"isr":             "205600/61680/30840/514",
		"context_switch":  "257000/46260/41120/514",
		"io_uring_submit": "363000/105600/79200/660",
		"io_uring_reap":   "198000/46200/29700/660",
	},
	"zssd-uring-poll": {
		"app_user":        "231000/66000/46200/660",
		"syscall":         "145250/46480/29050/581",
		"blk_mq_poll":     "1643840/226028/82192/638",
		"nvme_poll":       "410960/102740/20548/638",
		"io_uring_submit": "363000/105600/79200/660",
		"io_uring_reap":   "198000/46200/29700/660",
	},
	"zssd-uring-hybrid": {
		"app_user":        "231000/66000/46200/660",
		"syscall":         "165000/52800/33000/660",
		"blk_mq_poll":     "795280/109351/39764/454",
		"nvme_poll":       "198820/49705/9941/454",
		"hrtimer":         "528000/99000/66000/1320",
		"io_uring_submit": "363000/105600/79200/660",
		"io_uring_reap":   "198000/46200/29700/660",
	},
	"zssd-uring-sqpoll": {
		"app_user":        "323100/90560/52340/1274",
		"io_uring_submit": "363000/105600/79200/660",
		"io_uring_reap":   "198000/46200/29700/660",
		"io_sq_thread":    "1607400/267900/53580/1",
	},
}
