package spdk

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func smallULL() ssd.Config {
	cfg := ssd.ZSSD()
	cfg.Channels = 4
	cfg.WaysPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.PagesPerBlock = 16
	cfg.BlocksPerUnit = 16
	cfg.FirmwareJitter = 0
	cfg.NAND.ReadJitter = 0
	cfg.NAND.ProgramJitter = 0
	cfg.NAND.ReadRetryProb = 0
	return cfg
}

type rig struct {
	eng  *sim.Engine
	dev  *ssd.Device
	qp   *nvme.QueuePair
	core *cpu.Core
	proc *cpu.Proc // solo (non-arbitrating) handle on core
}

func newRig() *rig {
	eng := sim.NewEngine()
	dev := ssd.NewDevice(smallULL(), eng)
	qp := nvme.New(eng, dev, nvme.DefaultConfig())
	core := cpu.NewCore()
	return &rig{eng: eng, dev: dev, qp: qp, core: core, proc: cpu.SoloProc(core)}
}

func runSerial(r *rig, submit func(bool, int64, int, func()), n int) sim.Time {
	var total sim.Time
	done := 0
	var issue func()
	issue = func() {
		start := r.eng.Now()
		submit(false, int64(done%64)*4096, 4096, func() {
			total += r.eng.Now() - start
			done++
			if done < n {
				issue()
			}
		})
	}
	issue()
	r.eng.Run()
	return total / sim.Time(n)
}

func TestSPDKCompletes(t *testing.T) {
	r := newRig()
	s := NewStack(r.eng, r.qp, r.proc, DefaultCosts())
	lat := runSerial(r, s.Submit, 20)
	if lat <= 0 || lat > 60*sim.Microsecond {
		t.Fatalf("SPDK latency %v outside sanity window", lat)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d", s.Outstanding())
	}
}

func TestSPDKFasterThanKernelInterrupt(t *testing.T) {
	// Kernel interrupt stack vs SPDK stack on the same device model.
	rInt := newRig()
	kStack := kernel.NewSyncStack(rInt.eng, rInt.qp, rInt.proc, kernel.DefaultCosts(), kernel.Interrupt)
	latInt := runSerial(rInt, kStack.Submit, 50)

	rSPDK := newRig()
	sStack := NewStack(rSPDK.eng, rSPDK.qp, rSPDK.proc, DefaultCosts())
	latSPDK := runSerial(rSPDK, sStack.Submit, 50)

	if latSPDK >= latInt {
		t.Fatalf("SPDK %v not faster than kernel interrupt %v", latSPDK, latInt)
	}
	reduction := float64(latInt-latSPDK) / float64(latInt)
	if reduction < 0.05 || reduction > 0.5 {
		t.Fatalf("SPDK reduction %.1f%% outside plausible ULL window", reduction*100)
	}
}

func TestSPDKNoKernelTime(t *testing.T) {
	r := newRig()
	s := NewStack(r.eng, r.qp, r.proc, DefaultCosts())
	runSerial(r, s.Submit, 20)
	s.Finalize(r.eng.Now())
	if r.core.KernelTime() != 0 {
		t.Fatalf("SPDK charged %v kernel time", r.core.KernelTime())
	}
	if r.core.UserTime() == 0 {
		t.Fatal("SPDK charged no user time")
	}
}

func TestSPDKFinalizeSaturatesCPU(t *testing.T) {
	r := newRig()
	s := NewStack(r.eng, r.qp, r.proc, DefaultCosts())
	runSerial(r, s.Submit, 50)
	s.Finalize(r.eng.Now())
	u := r.core.Utilization(r.eng.Now())
	if u.User < 90 {
		t.Fatalf("SPDK user utilization %.1f%%, want ~100%%", u.User)
	}
	if u.Kernel != 0 {
		t.Fatalf("SPDK kernel utilization %.1f%%, want 0", u.Kernel)
	}
}

func TestSPDKFinalizeIdempotent(t *testing.T) {
	r := newRig()
	s := NewStack(r.eng, r.qp, r.proc, DefaultCosts())
	runSerial(r, s.Submit, 5)
	s.Finalize(r.eng.Now())
	loads := r.core.Loads()
	s.Finalize(r.eng.Now())
	if r.core.Loads() != loads {
		t.Fatal("double Finalize double-charged")
	}
}

func TestSPDKMoreMemoryInstructionsThanKernelPoll(t *testing.T) {
	rPoll := newRig()
	kStack := kernel.NewSyncStack(rPoll.eng, rPoll.qp, rPoll.proc, kernel.DefaultCosts(), kernel.Poll)
	runSerial(rPoll, kStack.Submit, 50)

	rSPDK := newRig()
	sStack := NewStack(rSPDK.eng, rSPDK.qp, rSPDK.proc, DefaultCosts())
	runSerial(rSPDK, sStack.Submit, 50)
	sStack.Finalize(rSPDK.eng.Now())

	if rSPDK.core.Loads() <= rPoll.core.Loads() {
		t.Fatalf("SPDK loads %d not above kernel poll %d", rSPDK.core.Loads(), rPoll.core.Loads())
	}
	if rSPDK.core.Stores() <= rPoll.core.Stores() {
		t.Fatalf("SPDK stores %d not above kernel poll %d", rSPDK.core.Stores(), rPoll.core.Stores())
	}
}

func TestSPDKQueueDepthOverlap(t *testing.T) {
	r := newRig()
	s := NewStack(r.eng, r.qp, r.proc, DefaultCosts())
	const qd, total = 8, 100
	issued, completed := 0, 0
	var pump func()
	pump = func() {
		for issued < total && s.Outstanding() < qd {
			off := int64(issued%64) * 4096
			issued++
			s.Submit(false, off, 4096, func() {
				completed++
				pump()
			})
		}
	}
	pump()
	r.eng.Run()
	if completed != total {
		t.Fatalf("completed %d/%d", completed, total)
	}
}

func TestSPDKPollFunctionBreakdown(t *testing.T) {
	r := newRig()
	s := NewStack(r.eng, r.qp, r.proc, DefaultCosts())
	runSerial(r, s.Submit, 50)
	s.Finalize(r.eng.Now())
	proc := r.core.Acct(cpu.FnSPDKProcess).Loads
	pcie := r.core.Acct(cpu.FnPCIeProcess).Loads
	check := r.core.Acct(cpu.FnQpairCheck).Loads
	if proc == 0 || pcie == 0 || check == 0 {
		t.Fatal("SPDK poll functions uncharged")
	}
	if proc <= pcie {
		t.Fatalf("process_completions loads (%d) must dominate pcie (%d)", proc, pcie)
	}
}

func TestSPDKDefaultCostsSane(t *testing.T) {
	c := DefaultCosts()
	if c.PollIter() <= 0 {
		t.Fatal("poll iteration must take time")
	}
	perIterLoads := c.IterProcess.Loads + c.IterPCIe.Loads + c.IterCheck.Loads
	k := kernel.DefaultCosts()
	if perIterLoads <= k.PollIterBlk.Loads+k.PollIterNVMe.Loads {
		t.Fatal("SPDK per-iteration loads must exceed kernel polling's")
	}
}
