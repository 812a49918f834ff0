package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/orchestrator"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesValidUniqueAndDeclared(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: invalid", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q invalid or reused", w.name)
		}
		seen[w.name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	pl := perLayer()
	if len(f.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(pl))
	}
	for i, m := range f.PerLayer {
		if d := pl[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	spec := sweepSpecs(tinyScale)[0]
	d1, j1 := sweepInput(spec, orchestrator.SeedFor(1, spec.key))
	d2, j2 := sweepInput(spec, orchestrator.SeedFor(2, spec.key))
	if d1.Seed == d2.Seed || j1.Seed == j2.Seed {
		t.Errorf("sweep point: seeds 1 and 2 give the same device or job seed")
	}
	for name, input := range map[string]func(uint64) (uint64, uint64){
		"gc": func(s uint64) (uint64, uint64) { d, j := gcInput(s, tinyScale); return d.Seed, j.Seed },
		"kv": func(s uint64) (uint64, uint64) { d, j := kvInput(s, tinyScale); return d.Seed, j.Seed },
	} {
		a1, b1 := input(1)
		a2, b2 := input(2)
		if a1 == a2 || b1 == b2 {
			t.Errorf("%s: seeds 1 and 2 give the same device or job seed", name)
		}
	}
	r1, r2 := runGC(1, tinyScale), runGC(2, tinyScale)
	if r1.Points[0].Digest == r2.Points[0].Digest {
		t.Errorf("gc-steady: seeds 1 and 2 give the same results")
	}
	if again := runGC(1, tinyScale); again.Points[0].Digest != r1.Points[0].Digest {
		t.Errorf("gc-steady: one seed gives two results")
	}
}

// asMain makes a re-executed test binary act as the command, so the
// untraced path's repetition processes run in tests too.
const asMain = "PERFBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at tiny scale through the command line,
// untraced and traced, and checks that every declared metric is emitted.
func TestSmoke(t *testing.T) {
	t.Setenv(asMain, "1")
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w.name, "0")
			check(t, res, endToEnd)
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			res = smoke(t, w.name, "1")
			check(t, res, perLayer())
			if res.Metrics["sim.events"].Value <= 0 || res.Metrics["workload.ops"].Value <= 0 {
				t.Errorf("no simulated work: %+v", res.Metrics)
			}
		})
	}
}

// smoke runs the command once at tiny scale and decodes its last line.
func smoke(t *testing.T, workload, trace string) result {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--scale", "tiny"}
	if code := run(args, &out); code != 0 {
		t.Fatalf("%v: exit %d", args, code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return res
}

func check(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %+v, present %v", d.name, m, ok)
		}
	}
}

func TestCheckerFailsWrongDigestsAndPanics(t *testing.T) {
	var c checker
	first := rep{Points: []point{{Key: "a", Digest: "1"}, {Key: "b", Digest: "2"}}}
	if n := c.check(&first); n != 0 {
		t.Fatalf("reference repetition: %d failures", n)
	}
	next := rep{Points: []point{
		{Key: "a", Digest: "1"},
		{Key: "b", Digest: "3"},
		{Key: "c", Digest: "4"},
		{Key: "d", Err: guard(func() { panic("boom") })},
	}}
	if n := c.check(&next); n != 2 {
		t.Errorf("check found %d wrong digests, want 2", n)
	}
	if n := next.failed(); n != 3 {
		t.Errorf("%d failed points, want 3", n)
	}
}

func TestPinnedDigestsCoverEveryPoint(t *testing.T) {
	p, err := loadPinned(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"sweep-setup": len(sweepSpecs(fullScale)),
		"gc-steady":   1,
		"kv-mixed":    1,
	}
	for _, w := range workloads {
		if got := len(p[w.name]); got != want[w.name] {
			t.Errorf("%s: %d pinned digests, want %d", w.name, got, want[w.name])
		}
	}
	for _, s := range sweepSpecs(fullScale) {
		if _, ok := p["sweep-setup"][s.key]; !ok {
			t.Errorf("sweep point %s not pinned", s.key)
		}
	}
}

func TestHostPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/ssd.(*Device).Precondition":                        "ssd",
		"repro/internal/sim.(*FIFO[go.shape.*repro/internal/core.x]).Push": "sim",
		"repro/internal/workload.Run.func1":                                "workload",
		"runtime.mallocgc":                                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                     "runtime",
		"main.main":             "perfbench",
		"repro/perfbench.runGC": "perfbench",
		"crypto/sha256.block":   "other",
		"sort.Sort":             "other",
		"":                      "other",
	} {
		if got := hostPackage(sym); got != want {
			t.Errorf("hostPackage(%q) = %q, want %q", sym, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestSelfSharesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := selfShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if shares["perfbench"] < 0.5 {
		t.Errorf("spin's package has share %v, want most of the profile: %v", shares["perfbench"], shares)
	}
}

func TestHDQuantile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*math.Max(1, math.Abs(want)) }
	if got := hdQuantile([]float64{7}, 0.9); !near(got, 7) {
		t.Errorf("one sample: %v, want 7", got)
	}
	if got := hdQuantile([]float64{3, 3, 3, 3}, 0.5); !near(got, 3) {
		t.Errorf("constant sample: %v, want 3", got)
	}
	if got := hdQuantile([]float64{5, 1, 4, 2, 3}, 0.5); !near(got, 3) {
		t.Errorf("symmetric sample: median %v, want 3", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := hdQuantile(xs, 0.9); math.Abs(got-89.1) > 0.5 {
		t.Errorf("0..99: p90 %v, want about 89.1", got)
	}
	// Across a gap the estimate moves by a fraction of the gap when one
	// sample crosses it, not by the whole gap.
	lo, hi := make([]float64, 64), make([]float64, 64)
	for i := range lo {
		lo[i], hi[i] = 30+float64(i)/8, 60+float64(i)/8
	}
	a := hdQuantile(append(append([]float64{}, lo...), hi...), 0.5)
	lo[63] = 61
	b := hdQuantile(append(append([]float64{}, lo...), hi...), 0.5)
	if d := b - a; d <= 0 || d > 5 {
		t.Errorf("one sample crossing the gap moved the median by %v", d)
	}
}
