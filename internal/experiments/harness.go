// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections IV-VI). Each experiment is a named runner that
// builds the necessary systems, drives calibrated workloads, and returns
// result tables. `ullsim list` prints the experiment index; README
// "Parallel experiment runner" covers how experiments shard and merge.
package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/orchestrator"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/uring"
	"repro/internal/workload"
)

// Options control experiment scale and execution.
type Options struct {
	// Quick trades sample counts for speed (used by tests and the
	// default CLI mode); full runs give stable five-nines tails.
	Quick bool
	// Seed is the root experiment seed; per-shard seeds are hashed from
	// it. A zero Seed means "use the default" unless SeedSet is true,
	// in which case 0 itself is the root (the zero value is a valid
	// seed, not a sentinel).
	Seed    uint64
	SeedSet bool
	// Parallel is the worker count for shard execution: 1 runs serially,
	// 0 (or negative) uses GOMAXPROCS. Output is byte-identical for
	// every value — shards carry their own derived seeds and build
	// their own simulators, so scheduling cannot leak into results.
	Parallel int
	// Progress, when set, is called after each shard completes with the
	// running count (serialized; completion order, not shard order). It
	// feeds wall-clock reporting and never affects results.
	Progress func(done, total int)
	// Probe configures observability for every system the shards build
	// (installed as the process-wide probe default for the run's
	// duration). The zero value records nothing; any setting leaves
	// fixed-seed output byte-identical.
	Probe probe.Config
}

// scale picks a sample count: full when precision matters, quick for CI.
func (o Options) scale(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

func (o Options) seed() uint64 {
	if o.Seed == 0 && !o.SeedSet {
		return 0x1157c
	}
	return o.Seed
}

// Shard is one independent sweep point of an experiment: it builds its
// own simulator stack from the seed it is handed and returns a small,
// immutable result for the merge step. Key must be stable and unique
// within the experiment — it orders the merge and, hashed with the root
// seed, determines the shard's private seed.
type Shard struct {
	Key string
	Run func(seed uint64) any
}

// Plan is an experiment decomposed for the orchestrator: the sweep
// points, plus a merge that folds their results (delivered in shard
// order, independent of scheduling) back into the paper's tables.
type Plan struct {
	Shards []Shard
	Merge  func(res []any) []*metrics.Table
}

// Planner produces one experiment's plan at the given scale.
type Planner func(Options) *Plan

// tablesOnly is a Plan for experiments with no simulation to fan out
// (e.g. Table I, which just formats model parameters).
func tablesOnly(build func() []*metrics.Table) *Plan {
	return &Plan{Merge: func([]any) []*metrics.Table { return build() }}
}

// Experiment is a registered, runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Plan  Planner
}

// jobs converts the experiment's shards into orchestrator jobs, with
// keys namespaced by the experiment ID so plans from different
// experiments can share one pool.
func (e Experiment) jobs(p *Plan) []orchestrator.Job {
	jobs := make([]orchestrator.Job, len(p.Shards))
	for i, s := range p.Shards {
		jobs[i] = orchestrator.Job{Key: e.ID + "/" + s.Key, Run: s.Run}
	}
	return jobs
}

// Run plans the experiment, executes its shards across o.Parallel
// workers, and merges the results. For a fixed seed the output is
// byte-identical for every worker count.
func (e Experiment) Run(o Options) []*metrics.Table {
	defer installProbe(o)()
	p := e.Plan(o)
	return p.Merge(orchestrator.RunProgress(o.seed(), o.Parallel, e.jobs(p), o.Progress))
}

// installProbe makes o.Probe the process-wide probe default and returns
// the restore function.
func installProbe(o Options) func() {
	prev := probe.Default()
	probe.SetDefault(o.Probe)
	return func() { probe.SetDefault(prev) }
}

// ExperimentResult pairs an experiment with its regenerated tables.
type ExperimentResult struct {
	Experiment Experiment
	Tables     []*metrics.Table
}

// RunAll regenerates every experiment in ids (nil means the whole
// registry in paper order), flattening the shards of ALL experiments
// into one orchestrator pool. This is the fast path: late, long shards
// of one figure overlap with another figure's sweep instead of each
// experiment draining its own pool behind a barrier.
func RunAll(o Options, ids ...string) ([]ExperimentResult, error) {
	defer installProbe(o)()
	exps := All()
	if len(ids) > 0 {
		exps = exps[:0:0]
		seen := make(map[string]bool, len(ids))
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				return nil, fmt.Errorf("experiments: unknown experiment %q", id)
			}
			if seen[id] {
				return nil, fmt.Errorf("experiments: experiment %q requested twice", id)
			}
			seen[id] = true
			exps = append(exps, e)
		}
	}
	var jobs []orchestrator.Job
	plans := make([]*Plan, len(exps))
	starts := make([]int, len(exps))
	for i, e := range exps {
		plans[i] = e.Plan(o)
		starts[i] = len(jobs)
		jobs = append(jobs, e.jobs(plans[i])...)
	}
	res := orchestrator.RunProgress(o.seed(), o.Parallel, jobs, o.Progress)
	out := make([]ExperimentResult, len(exps))
	for i, e := range exps {
		shard := res[starts[i] : starts[i]+len(plans[i].Shards)]
		out[i] = ExperimentResult{Experiment: e, Tables: plans[i].Merge(shard)}
	}
	return out, nil
}

var registry = map[string]Experiment{}
var order []string

func register(id, title string, plan Planner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, Plan: plan}
	order = append(order, id)
}

// All returns every experiment in paper order: Table I, then the figures
// numerically, then the extensions.
func All() []Experiment {
	ids := append([]string(nil), order...)
	sort.SliceStable(ids, func(i, j int) bool { return expRank(ids[i]) < expRank(ids[j]) })
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, registry[id])
	}
	return out
}

// expRank orders experiment ids: tabN, then figN[letter], then ext-*.
func expRank(id string) int {
	switch {
	case strings.HasPrefix(id, "tab"):
		n, _ := strconv.Atoi(id[3:])
		return n
	case strings.HasPrefix(id, "fig"):
		digits := id[3:]
		letter := 0
		if l := digits[len(digits)-1]; l >= 'a' && l <= 'z' {
			letter = int(l-'a') + 1
			digits = digits[:len(digits)-1]
		}
		n, _ := strconv.Atoi(digits)
		return 100 + n*30 + letter
	default:
		return 1 << 20
	}
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// --- shared builders ---

// ull and nvme return the paper's two devices.
func ull() ssd.Config     { return ssd.ZSSD() }
func nvme750() ssd.Config { return ssd.NVMe750() }

// precondFraction is the default fill level of the LPN space before a
// measurement run: a mostly-full device (aged, all reads hit media) with
// a realistic free cushion.
const precondFraction = 0.9

// asyncSystem builds a preconditioned libaio system on dev.
func asyncSystem(dev ssd.Config, seed uint64) *core.System {
	cfg := core.DefaultConfig(dev)
	cfg.Stack = core.KernelAsync
	cfg.Precondition = precondFraction
	cfg.Device.Seed = dev.Seed ^ seed
	return core.NewSystem(cfg)
}

// syncSystem builds a preconditioned pvsync2 system with the given
// completion mode.
func syncSystem(dev ssd.Config, mode kernel.Mode, seed uint64) *core.System {
	cfg := core.DefaultConfig(dev)
	cfg.Stack = core.KernelSync
	cfg.Mode = mode
	cfg.Precondition = precondFraction
	cfg.Device.Seed = dev.Seed ^ seed
	return core.NewSystem(cfg)
}

// uringSystem builds a preconditioned io_uring system in the given
// completion mode. cores sizes the host CoreSet: 0 keeps the legacy
// single accounting core; SQPoll callers pass >= 2 so the submission
// thread's spin lands on its own pinned core instead of stacking onto
// the app's as oversubscription.
func uringSystem(dev ssd.Config, mode uring.Mode, cores int, seed uint64) *core.System {
	cfg := core.DefaultConfig(dev)
	cfg.Stack = core.IOUring
	cfg.Uring = uring.Config{Mode: mode}
	cfg.Cores = cores
	cfg.Precondition = precondFraction
	cfg.Device.Seed = dev.Seed ^ seed
	return core.NewSystem(cfg)
}

// spdkSystem builds a preconditioned SPDK system.
func spdkSystem(dev ssd.Config, seed uint64) *core.System {
	cfg := core.DefaultConfig(dev)
	cfg.Stack = core.SPDK
	cfg.Precondition = precondFraction
	cfg.Device.Seed = dev.Seed ^ seed
	return core.NewSystem(cfg)
}

// confineRegion reports the byte region a measurement job should touch
// on sys: the preconditioned span, aligned down to 1MiB, so reads always
// hit mapped media. Zero when the device is not preconditioned.
func confineRegion(sys *core.System) int64 {
	return confineSpan(sys.Cfg.Precondition, sys.ExportedBytes())
}

// confineSpan is the shared confinement computation: the preconditioned
// fraction of an exported capacity, aligned down to 1MiB.
func confineSpan(pre float64, exported int64) int64 {
	if pre <= 0 {
		return 0
	}
	region := int64(pre * float64(exported))
	const align = 1 << 20
	return region / align * align
}

// run executes a job and returns its result. Unless the job says
// otherwise, I/O is confined to the preconditioned region so reads always
// touch mapped media.
func run(sys *core.System, job workload.Job) *workload.Result {
	if job.Region == 0 {
		job.Region = confineRegion(sys)
	}
	return workload.Run(sys, job)
}

// runTenants executes open-loop tenants concurrently on one system, each
// confined to the preconditioned region like run.
func runTenants(sys *core.System, jobs ...workload.OpenJob) []*workload.OpenResult {
	for i := range jobs {
		if jobs[i].Region == 0 {
			jobs[i].Region = confineRegion(sys)
		}
	}
	return workload.RunTenants(sys, jobs...)
}

// runOpen is run's open-loop single-tenant counterpart.
func runOpen(sys *core.System, job workload.OpenJob) *workload.OpenResult {
	return runTenants(sys, job)[0]
}

// us formats a sim.Time as microseconds with two decimals.
func us(t sim.Time) string { return fmt.Sprintf("%.2f", t.Micros()) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f", v*100) }

// reduction reports (base-new)/base as a percentage string.
func reduction(base, new sim.Time) string {
	if base <= 0 {
		return "n/a"
	}
	return pct(float64(base-new) / float64(base))
}

// fourPatterns is the standard pattern set of the paper's figures.
var fourPatterns = []workload.Pattern{
	workload.SeqRead, workload.RandRead, workload.SeqWrite, workload.RandWrite,
}

// blockSizes45 is the 4KB..32KB sweep used by Figures 9-16.
var blockSizes = []int{4 << 10, 8 << 10, 16 << 10, 32 << 10}

func sizeLabel(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMB", n>>20)
	}
	return fmt.Sprintf("%dKB", n>>10)
}
