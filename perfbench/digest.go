package main

// Correctness: every point's simulated results are hashed into a digest.
// At the default seed the digests must equal the ones pinned in
// digests.json; at any seed every repetition in a run must reproduce the
// digests of the first, since the simulator is deterministic.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// defaultSeed is the seed whose digests are pinned.
const defaultSeed = 1

// digestFile holds the pinned digests, beside the benchmark sources.
const digestFile = "digests.json"

// pinned maps workload name to point key to digest, at defaultSeed and
// full scale.
type pinned map[string]map[string]string

// digestPoint hashes one point's simulated results: I/O counts and
// sim-time latency percentiles, every device's ssd.Stats and WearReport,
// every fs.Stats, the kv.Stats and the engine's event count. Host time
// never enters it.
func digestPoint(res *workload.Result, g *core.Graph, store *kv.Store) string {
	h := sha256.New()
	fmt.Fprintf(h, "ios=%d bytes=%d fsyncs=%d wall=%d\n", res.IOs, res.Bytes, res.Fsyncs, res.Wall)
	for _, hist := range []*metrics.Histogram{&res.All, &res.Read, &res.Write, &res.Fsync} {
		fmt.Fprintf(h, "n=%d mean=%d max=%d", hist.Count(), hist.Mean(), hist.Max())
		for _, p := range []float64{50, 90, 99, 99.9} {
			fmt.Fprintf(h, " p%g=%d", p, hist.Percentile(p))
		}
		fmt.Fprintln(h)
	}
	for _, d := range g.Devices() {
		fmt.Fprintf(h, "%+v %+v\n", d.Stats(), d.WearReport())
	}
	for _, s := range g.FSStats() {
		fmt.Fprintf(h, "%+v\n", s)
	}
	if store != nil {
		fmt.Fprintf(h, "%+v\n", store.Stats())
	}
	fmt.Fprintf(h, "events=%d now=%d\n", g.Engine().Processed, g.Engine().Now())
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// loadPinned reads the pinned digests from path.
func loadPinned(path string) (pinned, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p pinned
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return p, nil
}

// checker marks points whose digest is wrong. The first repetition of a
// run is the reference for the rest; at the default seed the pinned
// digests are the reference for all of them.
type checker struct {
	want map[string]string
}

// check turns every wrong digest in r into a failed point and returns
// how many it found. A point that already failed is left as it is.
func (c *checker) check(r *rep) int {
	if c.want == nil {
		c.want = make(map[string]string, len(r.Points))
		for _, p := range r.Points {
			if p.Err == "" {
				c.want[p.Key] = p.Digest
			}
		}
		return 0
	}
	n := 0
	for i := range r.Points {
		p := &r.Points[i]
		if p.Err != "" {
			continue
		}
		if want, ok := c.want[p.Key]; !ok || want != p.Digest {
			p.Err = fmt.Sprintf("digest %s, want %q", p.Digest, want)
			n++
		}
	}
	return n
}
