package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/orchestrator"
	"repro/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tab1", "fig4a", "fig4b", "fig5", "fig6", "fig7a", "fig7b", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	// Extensions live alongside the paper artifacts.
	for _, id := range []string{"ext-lightq", "ext-pollopt", "ext-loadcurve", "ext-tenants",
		"ext-stripe", "ext-tier", "ext-fsync", "ext-buffered", "ext-cachewb",
		"ext-ycsb", "ext-compaction"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("extension %s not registered", id)
		}
	}
	if len(All()) < len(want)+1 {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want)+1)
	}
	// Every experiment has an id, a title, and a planner; ByID round-trips.
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Plan == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) broken", e.ID)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("fig99"); ok {
		t.Fatal("unknown id resolved")
	}
	if _, err := RunAll(Options{Quick: true}, "fig99"); err == nil {
		t.Fatal("RunAll accepted an unknown id")
	}
}

func TestOptionsScale(t *testing.T) {
	q := Options{Quick: true}
	if q.scale(10, 100) != 10 {
		t.Fatal("quick scale")
	}
	f := Options{}
	if f.scale(10, 100) != 100 {
		t.Fatal("full scale")
	}
	if (Options{}).seed() == 0 {
		t.Fatal("default seed must be nonzero")
	}
	if (Options{Seed: 7}).seed() != 7 {
		t.Fatal("explicit seed ignored")
	}
	// Seed 0 is a valid root when explicitly set: the zero value is no
	// longer a sentinel once SeedSet says the caller meant it.
	if (Options{SeedSet: true}).seed() != 0 {
		t.Fatal("explicit zero seed replaced by the default")
	}
	if (Options{Seed: 7, SeedSet: true}).seed() != 7 {
		t.Fatal("SeedSet broke nonzero seeds")
	}
}

// TestShardKeysUnique asserts every experiment's plan has unique shard
// keys — duplicate keys would collapse two sweep points onto one seed.
// (The orchestrator enforces this at run time; checking the plans here
// catches it without running any simulation.)
func TestShardKeysUnique(t *testing.T) {
	o := Options{Quick: true}
	seen := map[string]bool{}
	for _, e := range All() {
		p := e.Plan(o)
		for _, s := range p.Shards {
			full := e.ID + "/" + s.Key
			if seen[full] {
				t.Errorf("duplicate shard key %q", full)
			}
			seen[full] = true
			if s.Run == nil {
				t.Errorf("shard %q has no Run", full)
			}
		}
		if p.Merge == nil {
			t.Errorf("experiment %q has no Merge", e.ID)
		}
	}
}

// TestShardSeedsIndependent asserts shard seeds derive from the root
// seed and shard key, so no two shards of a run share an RNG stream.
func TestShardSeedsIndependent(t *testing.T) {
	o := Options{Quick: true}
	seeds := map[uint64]string{}
	for _, e := range All() {
		for _, s := range e.Plan(o).Shards {
			full := e.ID + "/" + s.Key
			seed := orchestrator.SeedFor(o.seed(), full)
			if prev, dup := seeds[seed]; dup {
				t.Errorf("shards %q and %q share seed %#x", prev, full, seed)
			}
			seeds[seed] = full
		}
	}
}

func TestTable1Runs(t *testing.T) {
	e, _ := ByID("tab1")
	tables := e.Run(Options{Quick: true})
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	var sb strings.Builder
	if err := tables[0].Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Z-NAND", "3.00us", "100.00us", "2KB"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table missing %q", want)
		}
	}
}

// TestPollBeatsInterruptOnULL verifies the fig10 headline through the
// experiment helpers at test scale.
func TestPollBeatsInterruptOnULL(t *testing.T) {
	o := Options{Quick: true}
	poll := syncLatency(ull(), kernel.Poll, workload.RandRead, 4096, 400, o.seed())
	intr := syncLatency(ull(), kernel.Interrupt, workload.RandRead, 4096, 400, o.seed())
	if poll.All.Mean() >= intr.All.Mean() {
		t.Fatalf("poll %v not below interrupt %v", poll.All.Mean(), intr.All.Mean())
	}
}

// TestULLFasterThanNVMe verifies the fig4 headline: ULL random reads are
// several times faster than the conventional SSD's.
func TestULLFasterThanNVMe(t *testing.T) {
	o := Options{Quick: true}
	ullSys := system(ull(), core.Stack{Kind: core.KernelAsync}, o.seed())
	ullRes := run(ullSys, workload.Job{Spec: workload.Spec{Pattern: workload.RandRead, BlockSize: 4096, TotalIOs: 400, Seed: 1}})
	nvmeSys := system(nvme750(), core.Stack{Kind: core.KernelAsync}, o.seed())
	nvmeRes := run(nvmeSys, workload.Job{Spec: workload.Spec{Pattern: workload.RandRead, BlockSize: 4096, TotalIOs: 400, Seed: 1}})
	ratio := float64(nvmeRes.All.Mean()) / float64(ullRes.All.Mean())
	if ratio < 3 {
		t.Fatalf("NVMe/ULL random-read ratio %.1f, want >3 (paper: 5.2x)", ratio)
	}
}

func TestRunRegionConfinement(t *testing.T) {
	o := Options{Quick: true}
	sys := system(ull(), core.Stack{Kind: core.KernelSync, Mode: kernel.Interrupt}, o.seed())
	res := run(sys, workload.Job{Spec: workload.Spec{Pattern: workload.RandRead, BlockSize: 4096, TotalIOs: 300, Seed: 2}})
	if res.IOs != 300 {
		t.Fatal("run did not complete")
	}
	// Preconditioned region: no zero-fill reads.
	if sys.Devices()[0].Stats().ZeroFills != 0 {
		t.Fatalf("%d reads escaped the preconditioned region", sys.Devices()[0].Stats().ZeroFills)
	}
}

// shortSet is the reduced figure set exercised under -short: one
// experiment per subsystem family (device comparison, completion
// methods, hybrid polling, SPDK, NBD, the light-queue extension, and the
// open-loop load/tenant extensions), keeping a fast CI lane that still
// sweeps every code path.
var shortSet = []string{
	"tab1", "fig4a", "fig10", "fig12", "fig20", "fig23", "ext-lightq",
	"ext-loadcurve", "ext-tenants", "ext-stripe", "ext-tier",
	"ext-fsync", "ext-buffered", "ext-cachewb", "ext-ycsb", "ext-compaction",
	"ext-percore", "ext-uring",
}

// raceSet trims the lane further for `go test -race -short`: the
// detector costs ~10x, so one light experiment per stack family keeps
// the race job inside CI budgets while still driving the worker pool
// over async, sync, SPDK-paired, NBD, light-queue, and open-loop shards.
// ext-loadcurve and ext-tenants additionally auto-shrink their sweeps
// and windows under the detector (see loadPoints/tenantFracs/
// loadCurveScale), so including them costs seconds, not minutes; the
// filesystem trio shrinks to one shard each on race-reduced device
// geometry (fsyncDevices/fsyncModes/bufferedStacks/cwbSweep).
var raceSet = []string{
	"tab1", "fig6", "fig12", "fig23", "ext-lightq",
	"ext-loadcurve", "ext-tenants", "ext-stripe", "ext-tier",
	"ext-fsync", "ext-buffered", "ext-cachewb", "ext-ycsb", "ext-compaction",
	"ext-percore", "ext-uring",
}

// laneIDs picks the experiment set for the current test mode: the whole
// registry, the reduced shortSet under -short, or raceSet when the race
// detector is compiled in as well.
func laneIDs() []string {
	if testing.Short() {
		if raceEnabled {
			return raceSet
		}
		return shortSet
	}
	return nil // nil = whole registry
}

// TestAllExperimentsSmoke regenerates every registered experiment at
// quick scale through the RunAll fast path (all shards of all
// experiments in one worker pool) and validates table integrity. The
// full sweep is slow (tens of seconds); under -short only the reduced
// shortSet runs. Because RunAll computes the whole lane up front,
// -run filtering of one subtest does not shrink the work — to iterate
// on a single figure, drive it directly (`go run ./cmd/ullsim run
// fig23`) or via ByID(...).Run in a scratch test.
func TestAllExperimentsSmoke(t *testing.T) {
	results, err := RunAll(Options{Quick: true}, laneIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		r := r
		t.Run(r.Experiment.ID, func(t *testing.T) {
			if len(r.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range r.Tables {
				if tb.ID == "" || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("table %q incomplete", tb.ID)
				}
				for i, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("table %q row %d has %d cells, want %d",
							tb.ID, i, len(row), len(tb.Columns))
					}
				}
				var sb strings.Builder
				if err := tb.Render(&sb); err != nil {
					t.Fatalf("render: %v", err)
				}
				if err := tb.CSV(&sb); err != nil {
					t.Fatalf("csv: %v", err)
				}
			}
		})
	}
}

// rendered is one experiment's tables, rendered in order.
type rendered struct{ id, text string }

// renderEach renders every table of the given experiment set, one
// string per experiment, in registry order.
func renderEach(t *testing.T, o Options, ids []string) []rendered {
	t.Helper()
	results, err := RunAll(o, ids...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]rendered, len(results))
	for i, r := range results {
		var sb strings.Builder
		for _, tb := range r.Tables {
			if err := tb.Render(&sb); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = rendered{r.Experiment.ID, sb.String()}
	}
	return out
}

// renderLane renders every table of the given experiment set into one
// string, in registry order.
func renderLane(t *testing.T, o Options, ids []string) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range renderEach(t, o, ids) {
		sb.WriteString(r.text)
	}
	return sb.String()
}

// TestParallelMatchesSerial is the orchestrator's core guarantee: for a
// fixed seed, running the experiment lane with 8 workers renders tables
// byte-identical to the serial run. Under -short the reduced lane is
// compared; the full lane otherwise. The serial tables must also match
// the pinned registryDigests.
func TestParallelMatchesSerial(t *testing.T) {
	ids := laneIDs()
	serial := renderEach(t, Options{Quick: true, Seed: 0xd5eed, Parallel: 1}, ids)
	pooled := renderEach(t, Options{Quick: true, Seed: 0xd5eed, Parallel: 8}, ids)
	for i, r := range serial {
		if r != pooled[i] {
			t.Fatalf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel 8 ---\n%s", r.id, r.text, pooled[i].text)
		}
	}
	checkRegistryDigests(t, serial)
}

// checkRegistryDigests compares each experiment's rendered tables with
// its pinned SHA-256, so a refactor that claims byte-identical output
// is checked against the recorded tables, not only against itself. The
// race build shrinks sweeps (raceSet, loadPoints, ...), so its tables
// differ by design and are not checked.
func checkRegistryDigests(t *testing.T, lane []rendered) {
	t.Helper()
	if raceEnabled {
		t.Log("race build: sweeps are shrunk, registry digests not checked")
		return
	}
	for _, r := range lane {
		sum := sha256.Sum256([]byte(r.text))
		if got, want := hex.EncodeToString(sum[:]), registryDigests[r.id]; got != want {
			t.Errorf("%s: rendered tables at seed 0xd5eed changed:\n\t%q: %q, // pinned %q", r.id, r.id, got, want)
		}
	}
}

// registryDigests pins the SHA-256 of every experiment's rendered
// tables (quick scale, seed 0xd5eed, non-race build). A change that
// means to alter an experiment's output re-pins its line from the
// failure message.
var registryDigests = map[string]string{
	"tab1":           "c08f460682b6276b00cf5c958611ba920f553e8dba4f5c158a1c38ab389dde9f",
	"fig4a":          "3713614618baf1f5bb903a4b1a40f9a742ea656c354b28e4e73fc93b3db60a47",
	"fig4b":          "e2ce9bb6887bc18569f58e0f718e287c6d5f16a37feb9e407fe1882c694af4ef",
	"fig5":           "6031361ef6649d43751d09797073f80bcb25c1f70fad754fe9a6992880042bec",
	"fig6":           "d1cc78ac00108581bd08eaa4d65c1738b595c1ee1905f6564ea6ca70b298cb76",
	"fig7a":          "7d0c4640370919ca6093e321402985ea3b47627e74e3e0b528d90f51300d3a9a",
	"fig7b":          "fe9ebb654ceb3b44c977ef2e1278456c051bfb1500ce88f6bde148b6357ac1ee",
	"fig8":           "8601a7ce6fe0b8b2287900de51c7839343dedca6c73634ce4fd8c237ea7624ce",
	"fig9":           "d9c49ce0eb472ae6acc5baf250a5d2e6acde2239bebd87ea65042626bb3ef65c",
	"fig10":          "dd946fe542b78d9923517c047b392ed10960f41d2707ae7540a0405656564a44",
	"fig11":          "9a5c7eabd5507982796490eb01e617dec36912be6412af438805f6b91d2fc8c1",
	"fig12":          "1181d1bbc3f2e0fd5c4096b7a4295287e27f4cc94ed344eaf1a9334e193b2df3",
	"fig13":          "63e349a8d9149483d38857117e297a385bef45073120967c25596bc9f2339ecc",
	"fig14":          "7ec200459ea762106ce50cc4709dcfcd6cdd810ce20bd200624c6bfad30761e3",
	"fig15":          "602cecd8df3a8db03f7ef49c48385cfe8e9eb0f510cdfa0ced5dcb263cafe63b",
	"fig16":          "d0cf9b298addaa4bd76eac39959cad26b4fec20bd723280ca8f00403e0d348aa",
	"fig17":          "8d501dfbb86df03171a60833f686c043f2d36095f2666db467506df57a0bdf13",
	"fig18":          "c45d616d63cc2ac2498fc5514e2709a1e342fa9ad2adfcdedb053336d439f4ab",
	"fig19":          "804f3e094650c307cdeda703fba1c907db8d25feb754583fa4242254fed907f9",
	"fig20":          "9cc8516ad0d6279ed48c29ced7b11d0bcdc5b0d6b4e1067690a73ad4845c3458",
	"fig21":          "5f362200ff693986de379fb375bd8824bfe5e8d0560ac1ce47952e1d003fd392",
	"fig22":          "6ceec4201761d38f0e38bf78aee0df9cd6fb63c5872ea75512aff483ccd2e8fe",
	"fig23":          "97f680c735adcdd01ee423e968b09db5f9425247866c823b1913858a1f863520",
	"ext-lightq":     "95628c34881c783df694378548c8d16e2a6a10096e2782fccfde9c7ced5fcc0d",
	"ext-pollopt":    "65e07fbf62c21d7995da33a22148f2a1911e0cfc1d1a00a2968d0b3fc050ed5c",
	"ext-fsync":      "0c811ee46faed3b3b11a84226f32aa22b1a41d2f6985c5fdf7cb2b17c1155da7",
	"ext-buffered":   "5cb17de1a8574991a959d169847cda8a87e9bbcb1586b2da5b18d672a18f93f4",
	"ext-cachewb":    "aad2d0b510e6981f60ad1d0dfd4c242fa34ef5b0865afd723a2c19def1f9a55e",
	"ext-ycsb":       "f5f47f37b73ddcdedb09cac031a4575a43dc78e6d0d6593213198fc7c394a82b",
	"ext-compaction": "533205bca7de87db9dc443035fc963013ca98cc428060240ce7e78797bf59560",
	"ext-loadcurve":  "66b51e4699eca30d5ae69c8cd96a26498d137c10984cb5261dd677e5b3eb72e4",
	"ext-tenants":    "799010b5ec05a8c387ca2f65eb4d12508b52d2a54215957f17d8151bbba7b673",
	"ext-percore":    "6cdabb55bc81e93eb69924a9bbd9f618b2445e48c0ce387a70d5dc5e0d3a8f1f",
	"ext-stripe":     "5da949bc25091c7025c399fe5b3e54db865e4e14b741a5463c66bf4f6ae1a4f8",
	"ext-tier":       "32be59b4580aebdd4734e9663e6b462613c0212e93dc8319f295b9cc74a3bfcd",
	"ext-uring":      "415be43528f2091dd955c727b359066c852fdd6c107440d318692cfd54196910",
}

// TestFig4aDeterministic asserts that two runs with the same seed render
// byte-identical tables — the guarantee the pooled event core must
// preserve (same event order, same RNG draw order).
func TestFig4aDeterministic(t *testing.T) {
	if raceEnabled && testing.Short() {
		t.Skip("fig4a's 80-shard sweep twice is too slow under the race detector; TestParallelMatchesSerial covers determinism")
	}
	e, ok := ByID("fig4a")
	if !ok {
		t.Fatal("fig4a not registered")
	}
	render := func() string {
		var sb strings.Builder
		for _, tb := range e.Run(Options{Quick: true, Seed: 0xd5eed}) {
			if err := tb.Render(&sb); err != nil {
				t.Fatal(err)
			}
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("fig4a output differs between identically seeded runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// parseUS reads a table cell formatted by us() back into microseconds.
func parseUS(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not a latency: %v", cell, err)
	}
	return v
}

// TestLoadCurveTailMonotonicAtKnee is the acceptance check for the
// open-loop hockey stick: for every stack, p99 at the highest offered
// load must sit strictly above p99 at the lowest, and mean latency must
// be non-decreasing across the whole sweep's knee (first vs last point).
func TestLoadCurveTailMonotonicAtKnee(t *testing.T) {
	// Skip on raceEnabled alone, not raceEnabled && Short: the race build
	// shrinks loadPoints to a single point, which leaves no knee to check
	// regardless of -short.
	if raceEnabled {
		t.Skip("the race build shrinks the sweep to one load point; the non-race lanes check the knee")
	}
	e, ok := ByID("ext-loadcurve")
	if !ok {
		t.Fatal("ext-loadcurve not registered")
	}
	tables := e.Run(Options{Quick: true})
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	tb := tables[0]
	const (
		colStack = 0
		colP99   = 5
	)
	first := map[string]float64{} // stack -> p99 at lowest load
	last := map[string]float64{}  // stack -> p99 at highest load (rows are load-ordered)
	for _, row := range tb.Rows {
		stack := row[colStack]
		p99 := parseUS(t, row[colP99])
		if _, seen := first[stack]; !seen {
			first[stack] = p99
		}
		last[stack] = p99
	}
	if len(first) != 3 {
		t.Fatalf("expected 3 stacks, saw %d", len(first))
	}
	for stack, lo := range first {
		if hi := last[stack]; hi <= lo {
			t.Errorf("%s: p99 at highest load (%.2fus) not above lowest load (%.2fus) — no knee", stack, hi, lo)
		}
	}
}

// TestTenantsReaderTailGrowsWithWriteRate checks ext-tenants' headline:
// the reader's p99 with the heaviest co-tenant writer exceeds the solo
// baseline.
func TestTenantsReaderTailGrowsWithWriteRate(t *testing.T) {
	// As above: the race build's single-point sweep has no solo baseline
	// row, so the comparison is meaningless under the detector.
	if raceEnabled {
		t.Skip("the race build shrinks the sweep to one tenant point; the non-race lanes check the tail growth")
	}
	e, ok := ByID("ext-tenants")
	if !ok {
		t.Fatal("ext-tenants not registered")
	}
	tables := e.Run(Options{Quick: true})
	tb := tables[0]
	const colReaderP99 = 5
	solo := parseUS(t, tb.Rows[0][colReaderP99])
	heaviest := parseUS(t, tb.Rows[len(tb.Rows)-1][colReaderP99])
	if heaviest <= solo {
		t.Fatalf("reader p99 beside the heaviest writer (%.2fus) not above solo (%.2fus)", heaviest, solo)
	}
}

// TestOpenLoopExperimentsDeterministic renders ext-loadcurve and
// ext-tenants twice serially and once through 4 workers: all three must
// be byte-identical for a fixed seed (the ISSUE's acceptance bar for the
// open-loop engine).
func TestOpenLoopExperimentsDeterministic(t *testing.T) {
	if raceEnabled && testing.Short() {
		t.Skip("three full open-loop lanes are too slow under the race detector; TestParallelMatchesSerial covers these experiments")
	}
	ids := []string{"ext-loadcurve", "ext-tenants"}
	a := renderLane(t, Options{Quick: true, Seed: 0x10ad, Parallel: 1}, ids)
	b := renderLane(t, Options{Quick: true, Seed: 0x10ad, Parallel: 1}, ids)
	if a != b {
		t.Fatal("repeat serial runs differ for a fixed seed")
	}
	c := renderLane(t, Options{Quick: true, Seed: 0x10ad, Parallel: 4}, ids)
	if a != c {
		t.Fatalf("parallel-4 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, c)
	}
}

func TestHelpers(t *testing.T) {
	if sizeLabel(4096) != "4KB" || sizeLabel(1<<20) != "1MB" {
		t.Fatal("sizeLabel")
	}
	if pct(0.5) != "50.0" {
		t.Fatal("pct")
	}
	if reduction(100, 80) != "20.0" {
		t.Fatal("reduction")
	}
	if reduction(0, 80) != "n/a" {
		t.Fatal("reduction zero base")
	}
	if len(patternNames()) != 4 {
		t.Fatal("patternNames")
	}
}

// TestStripeScalesWithWidth is ext-stripe's acceptance check: for the
// asynchronous stacks, IOPS at the widest stripe must clearly exceed
// the single-device rate (near-linear scaling is the headline; >2x at
// width 4+ is the floor that catches a router serializing everything).
func TestStripeScalesWithWidth(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build trims the sweep to widths 1-2 on one stack; the non-race lanes check scaling")
	}
	e, ok := ByID("ext-stripe")
	if !ok {
		t.Fatal("ext-stripe not registered")
	}
	tables := e.Run(Options{Quick: true})
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	const (
		colStack = 0
		colWidth = 1
		colIOPS  = 2
	)
	iops := map[string]map[string]float64{}
	for _, row := range tables[0].Rows {
		st := row[colStack]
		if iops[st] == nil {
			iops[st] = map[string]float64{}
		}
		v, err := strconv.ParseFloat(row[colIOPS], 64)
		if err != nil {
			t.Fatalf("kIOPS cell %q: %v", row[colIOPS], err)
		}
		iops[st][row[colWidth]] = v
	}
	for _, st := range []string{"libaio", "spdk"} {
		w1, w8 := iops[st]["1"], iops[st]["8"]
		if w1 <= 0 || w8 < 2*w1 {
			t.Errorf("%s: width-8 stripe %.1f kIOPS not >2x width-1 %.1f", st, w8, w1)
		}
	}
}

// TestTierTailGrowsWithWritePressure is ext-tier's acceptance check:
// the read p99 under the heaviest write share must exceed the
// no-migration baseline, and the baseline row must show zero
// migrations.
func TestTierTailGrowsWithWritePressure(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build trims the sweep to one write share; the non-race lanes check the growth")
	}
	e, ok := ByID("ext-tier")
	if !ok {
		t.Fatal("ext-tier not registered")
	}
	tables := e.Run(Options{Quick: true})
	tb := tables[0]
	const (
		colReadP99    = 3
		colMigrations = 7
	)
	if tb.Rows[0][colMigrations] != "0" {
		t.Fatalf("baseline write share migrated %s chunks, want 0", tb.Rows[0][colMigrations])
	}
	base := parseUS(t, tb.Rows[0][colReadP99])
	heavy := parseUS(t, tb.Rows[len(tb.Rows)-1][colReadP99])
	if heavy <= base {
		t.Fatalf("read p99 under heaviest writes (%.2fus) not above baseline (%.2fus)", heavy, base)
	}
	if tb.Rows[len(tb.Rows)-1][colMigrations] == "0" {
		t.Fatal("heaviest write share never migrated")
	}
}

// TestTopologyExperimentsDeterministic renders ext-stripe and ext-tier
// twice serially and once through 4 workers: all three must be
// byte-identical for a fixed seed (the acceptance bar for the topology
// router — per-leaf queues and tier migration included).
func TestTopologyExperimentsDeterministic(t *testing.T) {
	if raceEnabled && testing.Short() {
		t.Skip("three topology lanes are too slow under the race detector; TestParallelMatchesSerial covers these experiments")
	}
	ids := []string{"ext-stripe", "ext-tier"}
	a := renderLane(t, Options{Quick: true, Seed: 0x7070, Parallel: 1}, ids)
	b := renderLane(t, Options{Quick: true, Seed: 0x7070, Parallel: 1}, ids)
	if a != b {
		t.Fatal("repeat serial runs differ for a fixed seed")
	}
	c := renderLane(t, Options{Quick: true, Seed: 0x7070, Parallel: 4}, ids)
	if a != c {
		t.Fatalf("parallel-4 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, c)
	}
}

// TestFsyncJournalCostsMore is ext-fsync's acceptance check: on the ULL
// device the ordered journal's fsync p99 must exceed the no-journal
// fsync p99 (two extra serialized round trips per sync), and every
// fsync must dwarf the raw device write it protects.
func TestFsyncJournalCostsMore(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build trims the sweep to one journal mode; the non-race lanes compare modes")
	}
	e, ok := ByID("ext-fsync")
	if !ok {
		t.Fatal("ext-fsync not registered")
	}
	tables := e.Run(Options{Quick: true})
	tb := tables[0]
	const (
		colDevice  = 0
		colJournal = 1
		colRaw     = 2
		colP99     = 6
	)
	p99 := map[string]float64{} // "device/journal" -> fsync p99
	raw := map[string]float64{}
	for _, row := range tb.Rows {
		key := row[colDevice] + "/" + row[colJournal]
		p99[key] = parseUS(t, row[colP99])
		raw[key] = parseUS(t, row[colRaw])
	}
	for _, dev := range []string{"ull", "nvme"} {
		if p99[dev+"/ordered"] <= p99[dev+"/none"] {
			t.Errorf("%s: ordered fsync p99 (%.2fus) not above no-journal (%.2fus)",
				dev, p99[dev+"/ordered"], p99[dev+"/none"])
		}
		for _, m := range []string{"none", "ordered", "log"} {
			if p99[dev+"/"+m] <= raw[dev+"/"+m] {
				t.Errorf("%s/%s: fsync p99 (%.2fus) not above the raw write (%.2fus)",
					dev, m, p99[dev+"/"+m], raw[dev+"/"+m])
			}
		}
	}
}

// TestBufferedShareGrowsOnULL is ext-buffered's acceptance check: for
// every stack, the filesystem's share of buffered-miss latency on the
// ULL device must exceed its share on the conventional SSD — the
// paper's "host software dominates as the device shrinks", applied to
// the page cache.
func TestBufferedShareGrowsOnULL(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build trims the sweep to one stack on one device; the non-race lanes compare devices")
	}
	e, ok := ByID("ext-buffered")
	if !ok {
		t.Fatal("ext-buffered not registered")
	}
	tables := e.Run(Options{Quick: true})
	tb := tables[0]
	const (
		colDevice = 0
		colStack  = 1
		colDirect = 2
		colShare  = 5
		colHit    = 6
	)
	share := map[string]float64{} // "device/stack"
	for _, row := range tb.Rows {
		share[row[colDevice]+"/"+row[colStack]] = parseUS(t, row[colShare])
		// A warm cache hit must beat even the fastest direct path.
		if hit, direct := parseUS(t, row[colHit]), parseUS(t, row[colDirect]); hit >= direct {
			t.Errorf("%s/%s: cache hit (%.2fus) not below O_DIRECT (%.2fus)",
				row[colDevice], row[colStack], hit, direct)
		}
	}
	for _, st := range []string{"kernel-poll", "libaio", "spdk"} {
		if share["ull/"+st] <= share["nvme/"+st] {
			t.Errorf("%s: fs share on ULL (%.1f%%) not above conventional (%.1f%%)",
				st, share["ull/"+st], share["nvme/"+st])
		}
	}
}

// TestCacheWBReadTailGrowsWithWrites is ext-cachewb's acceptance check:
// at the default dirty ratio, the buffered read p99 under the heaviest
// write share must exceed the read-only baseline, and the baseline row
// must show zero write-back activity.
func TestCacheWBReadTailGrowsWithWrites(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build trims the sweep to one point; the non-race lanes check the growth")
	}
	e, ok := ByID("ext-cachewb")
	if !ok {
		t.Fatal("ext-cachewb not registered")
	}
	tables := e.Run(Options{Quick: true})
	tb := tables[0]
	const (
		colP99      = 4
		colWBWrites = 7
	)
	if tb.Rows[0][colWBWrites] != "0" {
		t.Fatalf("read-only baseline wrote back %s batches, want 0", tb.Rows[0][colWBWrites])
	}
	base := parseUS(t, tb.Rows[0][colP99])
	heavy := parseUS(t, tb.Rows[3][colP99]) // write frac 0.75 at default ratio
	if heavy <= base {
		t.Fatalf("read p99 under heavy buffered writes (%.2fus) not above read-only baseline (%.2fus)", heavy, base)
	}
	if tb.Rows[3][colWBWrites] == "0" {
		t.Fatal("heavy write share never triggered write-back")
	}
}

// TestFSExperimentsDeterministic renders the filesystem trio twice
// serially and once through 4 workers: all three must be byte-identical
// for a fixed seed (the ISSUE 5 acceptance bar).
func TestFSExperimentsDeterministic(t *testing.T) {
	if raceEnabled && testing.Short() {
		t.Skip("three filesystem lanes are too slow under the race detector; TestParallelMatchesSerial covers these experiments")
	}
	ids := []string{"ext-fsync", "ext-buffered", "ext-cachewb"}
	a := renderLane(t, Options{Quick: true, Seed: 0xf5, Parallel: 1}, ids)
	b := renderLane(t, Options{Quick: true, Seed: 0xf5, Parallel: 1}, ids)
	if a != b {
		t.Fatal("repeat serial runs differ for a fixed seed")
	}
	c := renderLane(t, Options{Quick: true, Seed: 0xf5, Parallel: 4}, ids)
	if a != c {
		t.Fatalf("parallel-4 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, c)
	}
}

// TestKVExperimentsDeterministic renders the KV pair twice serially and
// once through 4 workers: all three must be byte-identical for a fixed
// seed (the ISSUE 7 acceptance bar).
func TestKVExperimentsDeterministic(t *testing.T) {
	if raceEnabled && testing.Short() {
		t.Skip("two KV lanes are too slow under the race detector; TestParallelMatchesSerial covers these experiments")
	}
	ids := []string{"ext-ycsb", "ext-compaction"}
	a := renderLane(t, Options{Quick: true, Seed: 0x6b76, Parallel: 1}, ids)
	b := renderLane(t, Options{Quick: true, Seed: 0x6b76, Parallel: 1}, ids)
	if a != b {
		t.Fatal("repeat serial runs differ for a fixed seed")
	}
	c := renderLane(t, Options{Quick: true, Seed: 0x6b76, Parallel: 4}, ids)
	if a != c {
		t.Fatalf("parallel-4 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, c)
	}
}

// TestCompactionPressureShowsInterference checks the headline of the
// ext-compaction table: the top of the put sweep must actually trigger
// flushes and compactions, and the background traffic must not come for
// free (compaction bytes move through the host).
func TestCompactionPressureShowsInterference(t *testing.T) {
	if raceEnabled {
		t.Skip("one-point race sweep does not reach the compaction knee")
	}
	e, ok := ByID("ext-compaction")
	if !ok {
		t.Fatal("ext-compaction not registered")
	}
	tables := e.Run(Options{Quick: true, Seed: 0xc0, SeedSet: true})
	tb := tables[0]
	last := tb.Rows[len(tb.Rows)-1]
	if last[6] == "0" {
		t.Fatal("top put rate produced no flushes")
	}
	if last[7] == "0" {
		t.Fatal("top put rate produced no compactions")
	}
	if last[8] == "0" {
		t.Fatal("compactions moved no bytes through the host")
	}
	// The solo-getter baseline row must be quiet.
	if first := tb.Rows[0]; first[6] != "0" || first[7] != "0" {
		t.Fatalf("solo getter flushed or compacted: %v", first)
	}
}

// TestPercoreFrontierShape is the acceptance check for the ext-percore
// headline table: at saturation the kernel-bypass pollers (SPDK, then
// io_uring SQPOLL) must own the top of the IOPS-per-core frontier, and
// at the paced low-load point every interrupt-driven stack must bill
// fewer cores than every polling stack.
func TestPercoreFrontierShape(t *testing.T) {
	if raceEnabled {
		t.Skip("race lane trims the sweep below the frontier's shape")
	}
	e, ok := ByID("ext-percore")
	if !ok {
		t.Fatal("ext-percore not registered")
	}
	tables := e.Run(Options{Quick: true})
	tb := tables[0]
	const colStack, colLoad, colBusy, colPerCore = 0, 1, 4, 5
	perCore := map[string]float64{} // stack -> kIOPS/core at sat
	lowBusy := map[string]float64{} // stack -> busy cores at the low point
	for _, row := range tb.Rows {
		switch row[colLoad] {
		case "sat":
			perCore[row[colStack]] = parseUS(t, row[colPerCore])
		case "0.30":
			lowBusy[row[colStack]] = parseUS(t, row[colBusy])
		}
	}
	top, second := "", ""
	for name, v := range perCore {
		if top == "" || v > perCore[top] {
			top, second = name, top
		} else if second == "" || v > perCore[second] {
			second = name
		}
	}
	if top != "spdk" || second != "io_uring-sqpoll" {
		t.Fatalf("saturation frontier top two = %q, %q (want spdk, io_uring-sqpoll): %v", top, second, perCore)
	}
	for _, intr := range []string{"kernel-int", "libaio", "io_uring"} {
		for _, poll := range []string{"kernel-poll", "io_uring-sqpoll", "spdk"} {
			if lowBusy[intr] >= lowBusy[poll] {
				t.Fatalf("at low load %s bills %.3f cores, not below %s's %.3f",
					intr, lowBusy[intr], poll, lowBusy[poll])
			}
		}
	}
}

// TestPercoreContentionBites checks the core-contention table: the
// legacy accounting-only row must out-deliver the arbitrated 2-core row
// (CPU pushes back only when arbitrated), adding cores must win back
// throughput, and the 2-core run-queue must actually have queued.
func TestPercoreContentionBites(t *testing.T) {
	if raceEnabled {
		t.Skip("race lane trims the core sweep to one point")
	}
	e, _ := ByID("ext-percore")
	tb := e.Run(Options{Quick: true})[1]
	const colIOPS, colQueued = 1, 5
	byLabel := map[string][]string{}
	for _, row := range tb.Rows {
		byLabel[row[0]] = row
	}
	legacy := parseUS(t, byLabel["legacy"][colIOPS])
	two := parseUS(t, byLabel["2"][colIOPS])
	four := parseUS(t, byLabel["4"][colIOPS])
	if !(legacy > four && four > two) {
		t.Fatalf("contention ordering wrong: legacy %.1f, 4 cores %.1f, 2 cores %.1f", legacy, four, two)
	}
	if byLabel["2"][colQueued] == "0" {
		t.Fatal("2-core run never queued a claim")
	}
	if byLabel["legacy"][colQueued] != "0" {
		t.Fatal("legacy (non-arbitrating) run queued claims")
	}
}

// TestPercoreBudgetCaps checks the tenant-budget table: a 0.25-core
// budget at 2.5us per op must pin throughput to ~100k IOPS while the
// unbudgeted baseline absorbs the full offered load.
func TestPercoreBudgetCaps(t *testing.T) {
	if raceEnabled {
		t.Skip("race lane runs one budget point")
	}
	e, _ := ByID("ext-percore")
	tb := e.Run(Options{Quick: true})[2]
	byLabel := map[string][]string{}
	for _, row := range tb.Rows {
		byLabel[row[0]] = row
	}
	free := parseUS(t, byLabel["none"][1])
	quarter := parseUS(t, byLabel["0.25"][1])
	if free < 230 {
		t.Fatalf("unbudgeted baseline delivered %.1f kIOPS of the 250k offered", free)
	}
	if quarter < 90 || quarter > 110 {
		t.Fatalf("0.25-core budget delivered %.1f kIOPS, want ~100", quarter)
	}
	if byLabel["none"][2] != "0.0" {
		t.Fatal("unbudgeted baseline reported CPU throttling")
	}
}

// TestUringAdaptiveBeatsFixed is the acceptance check for the ext-uring
// scheme table: the adaptive hybrid must beat the kernel's fixed
// half-mean scheme on the CPU bill without giving up the tail, and must
// land poll-class p99 at well under half of poll's CPU.
func TestUringAdaptiveBeatsFixed(t *testing.T) {
	if raceEnabled {
		t.Skip("race lane trims the scheme sweep")
	}
	e, ok := ByID("ext-uring")
	if !ok {
		t.Fatal("ext-uring not registered")
	}
	tb := e.Run(Options{Quick: true})[0]
	const colP99, colCPU = 3, 5
	rows := map[string][]string{}
	for _, row := range tb.Rows {
		rows[row[0]] = row
	}
	adaptCPU := parseUS(t, rows["io_uring-hybrid"][colCPU])
	fixedCPU := parseUS(t, rows["kernel-hybrid"][colCPU])
	adaptP99 := parseUS(t, rows["io_uring-hybrid"][colP99])
	fixedP99 := parseUS(t, rows["kernel-hybrid"][colP99])
	if adaptCPU >= fixedCPU {
		t.Fatalf("adaptive hybrid CPU %.2f us/IO not below fixed scheme's %.2f", adaptCPU, fixedCPU)
	}
	if adaptP99 > fixedP99 {
		t.Fatalf("adaptive hybrid paid for its CPU win with the tail: p99 %.2f vs %.2f us", adaptP99, fixedP99)
	}
	pollCPU := parseUS(t, rows["io_uring-poll"][colCPU])
	pollP99 := parseUS(t, rows["io_uring-poll"][colP99])
	if adaptCPU > pollCPU/2 {
		t.Fatalf("adaptive hybrid CPU %.2f us/IO not under half of poll's %.2f", adaptCPU, pollCPU)
	}
	if adaptP99 > pollP99*1.15 {
		t.Fatalf("adaptive hybrid p99 %.2f us not poll-class (poll: %.2f)", adaptP99, pollP99)
	}
}

// TestUringSQPollCrossover checks the second ext-uring table: interrupt
// completion owns the busy-cores column at the paced low point, SQPOLL
// owns IOPS-per-core at the saturating top point.
func TestUringSQPollCrossover(t *testing.T) {
	if raceEnabled {
		t.Skip("race lane runs one crossover point")
	}
	e, _ := ByID("ext-uring")
	tb := e.Run(Options{Quick: true})[1]
	const colBusy, colPerCore = 4, 5
	cell := func(stack, load string, col int) float64 {
		for _, row := range tb.Rows {
			if row[0] == stack && row[1] == load {
				return parseUS(t, row[col])
			}
		}
		t.Fatalf("no row for %s at load %s", stack, load)
		return 0
	}
	if ib, sb := cell("io_uring-int", "0.30", colBusy), cell("io_uring-sqpoll", "0.30", colBusy); ib >= sb {
		t.Fatalf("at low load interrupt bills %.3f cores, not below SQPOLL's %.3f", ib, sb)
	}
	if ip, sp := cell("io_uring-int", "32", colPerCore), cell("io_uring-sqpoll", "32", colPerCore); sp <= ip {
		t.Fatalf("at saturation SQPOLL delivers %.1f kIOPS/core, not above interrupt's %.1f", sp, ip)
	}
}

// TestPercoreUringExperimentsDeterministic renders the per-core pair
// twice serially and once through 4 workers: all three must be
// byte-identical for a fixed seed (the ISSUE 8 acceptance bar).
func TestPercoreUringExperimentsDeterministic(t *testing.T) {
	if raceEnabled && testing.Short() {
		t.Skip("three full lanes are too slow under the race detector; TestParallelMatchesSerial covers these experiments")
	}
	ids := []string{"ext-percore", "ext-uring"}
	a := renderLane(t, Options{Quick: true, Seed: 0xc04e, Parallel: 1}, ids)
	b := renderLane(t, Options{Quick: true, Seed: 0xc04e, Parallel: 1}, ids)
	if a != b {
		t.Fatal("repeat serial runs differ for a fixed seed")
	}
	c := renderLane(t, Options{Quick: true, Seed: 0xc04e, Parallel: 4}, ids)
	if a != c {
		t.Fatalf("parallel-4 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, c)
	}
}
