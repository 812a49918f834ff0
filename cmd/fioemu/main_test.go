package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
)

func parse(t *testing.T, args ...string) *config {
	t.Helper()
	var sb strings.Builder
	c, err := parseFlags(args, &sb)
	if err != nil {
		t.Fatalf("parseFlags(%v): %v (stderr: %s)", args, err, sb.String())
	}
	return c
}

// TestRWMixWriteValidation is the regression test for the silently
// accepted nonsense values: percentages outside 0-100 must be a usage
// error, the boundary values must parse.
func TestRWMixWriteValidation(t *testing.T) {
	for _, bad := range []string{"-1", "101", "1000"} {
		var sb strings.Builder
		if _, err := parseFlags([]string{"-rwmixwrite", bad}, &sb); err == nil {
			t.Errorf("-rwmixwrite %s accepted", bad)
		}
	}
	for _, ok := range []string{"0", "50", "100"} {
		parse(t, "-rwmixwrite", ok)
	}
	// The usage error must reach the user through the exit path too.
	var out, errOut strings.Builder
	if code := run([]string{"-rwmixwrite", "150"}, &out, &errOut); code != 2 {
		t.Fatalf("run exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "rwmixwrite") {
		t.Fatalf("stderr does not name the bad flag: %q", errOut.String())
	}
}

func TestSyncRatioValidation(t *testing.T) {
	var sb strings.Builder
	if _, err := parseFlags([]string{"-syncratio", "-3"}, &sb); err == nil {
		t.Error("-syncratio -3 accepted")
	}
	parse(t, "-syncratio", "0")
	parse(t, "-syncratio", "32")
}

// TestBadNumericFlags is the regression test for the hang on negative
// bounds and the panic on a zero block size: every out-of-range value
// is a one-line usage error with exit status 2. Each run has a
// deadline, because a negative bound used to run forever.
func TestBadNumericFlags(t *testing.T) {
	type outcome struct {
		code   int
		stderr string
	}
	for _, c := range []struct{ flag, value string }{
		{"-bs", "0"}, {"-bs", "-4096"},
		{"-ios", "-5"},
		{"-runtime", "-1s"},
		{"-iodepth", "0"}, {"-iodepth", "-2"},
		{"-precondition", "-0.1"}, {"-precondition", "1.5"},
	} {
		done := make(chan outcome, 1)
		go func() {
			var out, errOut strings.Builder
			defer func() {
				if p := recover(); p != nil {
					done <- outcome{-1, fmt.Sprintf("panic: %v", p)}
				}
			}()
			code := run([]string{c.flag, c.value}, &out, &errOut)
			done <- outcome{code, errOut.String()}
		}()
		select {
		case got := <-done:
			if got.code != 2 || !strings.Contains(got.stderr, c.flag) || strings.Count(got.stderr, "\n") != 1 {
				t.Errorf("%s %s: exit %d, stderr %q; want exit 2 and one line naming the flag",
					c.flag, c.value, got.code, got.stderr)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s %s: run did not return", c.flag, c.value)
		}
	}
	for _, ok := range [][]string{
		{"-bs", "512"}, {"-ios", "0"}, {"-runtime", "0"}, {"-iodepth", "1"},
		{"-precondition", "0"}, {"-precondition", "1"},
	} {
		parse(t, ok...)
	}
}

// TestDeviceFlagWiring: every -dev spelling maps onto the right device
// model; unknown names error.
func TestDeviceFlagWiring(t *testing.T) {
	for name, want := range map[string]repro.DeviceConfig{
		"ull": repro.ZSSD(), "zssd": repro.ZSSD(),
		"nvme": repro.NVMe750(), "750": repro.NVMe750(),
	} {
		got, err := deviceConfig(name)
		if err != nil {
			t.Errorf("deviceConfig(%q): %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("deviceConfig(%q) wired the wrong device model", name)
		}
	}
	if _, err := deviceConfig("optane"); err == nil {
		t.Error("unknown device accepted")
	}
}

// TestEngineFlagWiring: -engine/-completion map onto the stack kinds
// and completion modes.
func TestEngineFlagWiring(t *testing.T) {
	uringOn := func(m repro.UringMode) repro.StackLayer {
		return repro.StackLayer{Kind: repro.IOUring, Uring: &repro.UringConfig{Mode: m}}
	}
	cases := []struct {
		engine, completion string
		stack              repro.StackLayer
		cores              int
	}{
		{"pvsync2", "interrupt", repro.StackLayer{Kind: repro.KernelSync, Mode: repro.Interrupt}, 0},
		{"pvsync2", "poll", repro.StackLayer{Kind: repro.KernelSync, Mode: repro.Poll}, 0},
		{"pvsync2", "hybrid", repro.StackLayer{Kind: repro.KernelSync, Mode: repro.Hybrid}, 0},
		{"libaio", "interrupt", repro.StackLayer{Kind: repro.KernelAsync}, 0},
		{"spdk", "interrupt", repro.StackLayer{Kind: repro.SPDK}, 0},
		{"io_uring", "interrupt", uringOn(repro.UringInterrupt), 0},
		{"io_uring", "poll", uringOn(repro.UringPoll), 0},
		{"io_uring", "hybrid", uringOn(repro.UringHybrid), 0},
		{"io_uring", "sqpoll", uringOn(repro.UringSQPoll), 2},
	}
	for _, c := range cases {
		got, err := stackFor(c.engine, c.completion)
		if err != nil {
			t.Errorf("stackFor(%q, %q): %v", c.engine, c.completion, err)
			continue
		}
		if !reflect.DeepEqual(got, c.stack) {
			t.Errorf("stackFor(%q, %q) = %+v, want %+v", c.engine, c.completion, got, c.stack)
		}
		topo, err := parse(t, "-engine", c.engine, "-completion", c.completion).topology()
		if err != nil {
			t.Fatal(err)
		}
		if topo.Cores != c.cores {
			t.Errorf("%s/%s built %d cores, want %d", c.engine, c.completion, topo.Cores, c.cores)
		}
	}
	if _, err := stackFor("uring", "interrupt"); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := stackFor("pvsync2", "sleepy"); err == nil {
		t.Error("unknown completion accepted")
	}
	// pvsync2 does not grow a sqpoll mode by accident.
	if _, err := stackFor("pvsync2", "sqpoll"); err == nil {
		t.Error("pvsync2 accepted sqpoll")
	}
}

// TestUnknownEngineUsage: the -engine usage error enumerates every valid
// engine name so the fix is in the message.
func TestUnknownEngineUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-engine", "uring", "-ios", "10"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown engine exited %d, want 2", code)
	}
	msg := errOut.String()
	for _, want := range []string{"uring", "pvsync2", "libaio", "io_uring", "spdk"} {
		if !strings.Contains(msg, want) {
			t.Errorf("usage error %q does not mention %q", msg, want)
		}
	}
}

// TestIOUringEndToEnd drives the io_uring engine through the whole CLI,
// including the SQPOLL second core in the report.
func TestIOUringEndToEnd(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-dev", "ull", "-rw", "randread", "-bs", "4096",
		"-iodepth", "8", "-engine", "io_uring", "-completion", "sqpoll",
		"-ios", "300", "-seed", "7"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"engine=io_uring", "completion=sqpoll", "cores: 2", "pinned"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

// TestTopologyWiring: -fs and -journal decide whether (and how) the
// filesystem layer wraps the stack.
func TestTopologyWiring(t *testing.T) {
	bare, err := parse(t, "-dev", "ull", "-engine", "libaio").topology()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bare.Root.(repro.StackLayer); !ok {
		t.Fatalf("bare root is %T, want a stack layer", bare.Root)
	}

	buf, err := parse(t, "-fs", "-fscache", "1048576", "-journal", "log").topology()
	if err != nil {
		t.Fatal(err)
	}
	fsl, ok := buf.Root.(repro.FSLayer)
	if !ok {
		t.Fatalf("-fs root is %T, want a filesystem layer", buf.Root)
	}
	if fsl.Config.CacheBytes != 1<<20 || fsl.Config.Journal != repro.LogStructured {
		t.Fatalf("fs config = %+v, want 1MiB cache + log journal", fsl.Config)
	}

	// -journal alone implies the layer, with the cache off (O_DIRECT).
	jOnly, err := parse(t, "-journal", "ordered").topology()
	if err != nil {
		t.Fatal(err)
	}
	fsl, ok = jOnly.Root.(repro.FSLayer)
	if !ok {
		t.Fatalf("-journal root is %T, want a filesystem layer", jOnly.Root)
	}
	if fsl.Config.CacheBytes != 0 || fsl.Config.Journal != repro.OrderedJournal {
		t.Fatalf("fs config = %+v, want cacheless ordered journal", fsl.Config)
	}

	if _, err := parse(t, "-journal", "jbd3").topology(); err == nil {
		t.Error("unknown journal mode accepted")
	}
}

// TestJobWiring: pattern flags and the randrw mix reach the job.
func TestJobWiring(t *testing.T) {
	job, err := parse(t, "-rw", "randrw", "-rwmixwrite", "20", "-ios", "500", "-syncratio", "8").job()
	if err != nil {
		t.Fatal(err)
	}
	if job.Pattern != repro.RandRW || job.WriteFraction != 0.2 {
		t.Fatalf("job = %+v, want randrw at 20%% writes", job)
	}
	if job.TotalIOs != 500 || job.WarmupIOs != 50 || job.SyncEvery != 8 {
		t.Fatalf("job = %+v, want 500 I/Os, 50 warmup, fsync every 8", job)
	}
	if _, err := parse(t, "-rw", "trimwrite").job(); err == nil {
		t.Error("unknown pattern accepted")
	}
	// No stop condition: the 10k-I/O default kicks in.
	job, err = parse(t).job()
	if err != nil {
		t.Fatal(err)
	}
	if job.TotalIOs != 10000 || job.WarmupIOs != 1000 {
		t.Fatalf("default job = %+v, want 10000 I/Os with 1000 warmup", job)
	}
}

// stripWall drops the wall-clock suffix of the "simulated ... in ...
// wall" line — the only nondeterministic bytes of a report.
func stripWall(out string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if idx := strings.Index(l, " in "); strings.Contains(l, "simulated") && idx >= 0 {
			lines[i] = l[:idx]
		}
	}
	return strings.Join(lines, "\n")
}

// TestEndToEndDeterministic: two runs with one seed print byte-identical
// reports (modulo wall time); a different seed prints a different one.
func TestEndToEndDeterministic(t *testing.T) {
	report := func(seed string) string {
		var out, errOut strings.Builder
		// A small preconditioned span keeps the run cheap while still
		// letting the seed steer which mapped slots the reads land on.
		args := []string{"-dev", "ull", "-rw", "randread", "-engine", "libaio",
			"-iodepth", "4", "-ios", "300", "-precondition", "0.05", "-seed", seed}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("run exited %d: %s", code, errOut.String())
		}
		return stripWall(out.String())
	}
	a, b := report("7"), report("7")
	if a != b {
		t.Fatalf("identical seeds diverged:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "ios=300") {
		t.Fatalf("report missing the measured I/O count:\n%s", a)
	}
	if c := report("8"); c == a {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestPassthroughFSKeepsDepthGuard: -fs with a zero cache and no
// journal lowers to the bare serial stack, so the pvsync2 iodepth
// guard must still fire as a usage error (not a deep panic).
func TestPassthroughFSKeepsDepthGuard(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-fs", "-fscache", "0", "-engine", "pvsync2", "-iodepth", "4", "-ios", "100"}
	if code := run(args, &out, &errOut); code != 2 {
		t.Fatalf("run exited %d, want usage error 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "synchronous") {
		t.Fatalf("stderr does not explain the restriction: %q", errOut.String())
	}
}

// TestHelpExitsZero: -h is a successful help request, matching the
// pre-refactor ExitOnError behavior.
func TestHelpExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h exited %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-rwmixwrite") {
		t.Fatal("usage text not printed")
	}
}

// TestBreakdownFlag: -breakdown appends the per-phase attribution table
// to the report, and leaving it off keeps the report unchanged.
func TestBreakdownFlag(t *testing.T) {
	base := []string{"-dev", "ull", "-rw", "randwrite", "-engine", "libaio",
		"-iodepth", "4", "-ios", "400", "-fs", "-syncratio", "32",
		"-precondition", "0.05", "-seed", "7"}
	var out, errOut strings.Builder
	if code := run(append(base, "-breakdown"), &out, &errOut); code != 0 {
		t.Fatalf("run exited %d: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"phase", "writeback", "journal", "total"} {
		if !strings.Contains(got, want) {
			t.Errorf("breakdown table missing %q:\n%s", want, got)
		}
	}
	var plain, plainErr strings.Builder
	if code := run(base, &plain, &plainErr); code != 0 {
		t.Fatalf("run exited %d: %s", code, plainErr.String())
	}
	if strings.Contains(plain.String(), "phase") {
		t.Error("phase table printed without -breakdown")
	}
	// The fio-style report lines themselves must not shift when the
	// probe is recording: probes only observe, so the -breakdown output
	// is the plain report plus the appended table.
	if !strings.HasPrefix(stripWall(got), stripWall(plain.String())) {
		t.Errorf("report body changed under -breakdown:\n--- off ---\n%s\n--- on ---\n%s", plain.String(), got)
	}
}

// TestTraceAndSeriesFiles: -trace writes Chrome trace-event JSON and
// -series writes the sampled gauge CSV, both alongside a normal report.
func TestTraceAndSeriesFiles(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.json")
	seriesFile := filepath.Join(dir, "series.csv")
	var out, errOut strings.Builder
	args := []string{"-dev", "ull", "-rw", "randread", "-engine", "libaio",
		"-iodepth", "4", "-ios", "400", "-precondition", "0.05",
		"-trace", traceFile, "-series", seriesFile}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run exited %d: %s", code, errOut.String())
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace JSON is empty")
	}
	csv, err := os.ReadFile(seriesFile)
	if err != nil {
		t.Fatalf("series file: %v", err)
	}
	if !strings.HasPrefix(string(csv), "gauge,t_ns,value\n") {
		t.Fatalf("series CSV missing header:\n%s", csv)
	}
	if !strings.Contains(string(csv), "queue0.inflight") {
		t.Fatalf("series CSV missing the queue gauge:\n%s", csv)
	}
}

// TestUnknownFlagUsage: a bad flag is a usage error — exit 2 with the
// flag named on stderr, matching the other flag-validation paths.
func TestUnknownFlagUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nonsense"}, &out, &errOut); code != 2 {
		t.Fatalf("run exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "nonsense") {
		t.Fatalf("stderr does not name the bad flag: %q", errOut.String())
	}
}
