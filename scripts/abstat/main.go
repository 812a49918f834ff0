// Command abstat summarizes a same-host A/B comparison of the end-to-end
// benchmark: paired base and head runs of `perfbench/run.sh --trace 0`,
// as scripts/ab.sh records them. Each input line is
//
//	<workload> <side> <pair> <json>
//
// where side is base or head, pair numbers the interleaved pair, and json
// is the last line perfbench printed. For every workload and metric it
// prints both sides' median and interquartile range, the median delta,
// how many pairs head won, and a verdict:
//
//   - better: head won at least 9 of every 10 pairs and its median beats
//     the base median by more than the base IQR;
//   - worse: the same rule with the sides' roles swapped;
//   - unresolved: neither, and either side's IQR is wider than the
//     metric's bound, unless every head run beats every base run;
//   - flat: neither, inside the bound.
//
// A metric's direction and its regression bound (a fraction of the base
// median) come from BENCHMARK.json, read from the current directory, so
// abstat runs from the repo root; a median delta in the bad direction
// beyond the bound is flagged. abstat exits 1 when any run was incorrect
// or had failed points.
//
//	go run ./scripts/abstat < results.txt
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

type run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// pairs holds one workload's runs, indexed by pair number.
type pairs struct {
	base, head map[int]run
}

func main() {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatalf("%v (run from the repo root)", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		fatalf("BENCHMARK.json: %v", err)
	}
	higher := map[string]bool{}
	bound := map[string]float64{}
	for _, m := range s.EndToEnd {
		higher[m.Name] = m.Better == "higher"
		bound[m.Name] = m.Bound
	}

	byWorkload := map[string]*pairs{}
	var order []string
	bad := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), " ", 4)
		if len(f) < 4 {
			continue
		}
		var pair int
		if _, err := fmt.Sscan(f[2], &pair); err != nil {
			fatalf("bad pair number %q", f[2])
		}
		var r run
		if err := json.Unmarshal([]byte(f[3]), &r); err != nil {
			fatalf("%s %s pair %d: %v", f[0], f[1], pair, err)
		}
		if !r.Correct || r.Failed > 0 {
			fmt.Printf("%s %s pair %d: correct=%v failed=%d of %d\n", f[0], f[1], pair, r.Correct, r.Failed, r.Attempted)
			bad = true
		}
		p := byWorkload[f[0]]
		if p == nil {
			p = &pairs{base: map[int]run{}, head: map[int]run{}}
			byWorkload[f[0]] = p
			order = append(order, f[0])
		}
		switch f[1] {
		case "base":
			p.base[pair] = r
		case "head":
			p.head[pair] = r
		default:
			fatalf("unknown side %q", f[1])
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("reading results: %v", err)
	}

	for _, w := range order {
		report(w, byWorkload[w], higher, bound)
	}
	if bad {
		os.Exit(1)
	}
}

func report(workload string, p *pairs, higher map[string]bool, bound map[string]float64) {
	var ids []int
	names := map[string]bool{}
	for id, b := range p.base {
		h, ok := p.head[id]
		if !ok {
			continue
		}
		ids = append(ids, id)
		for m := range b.Metrics {
			if _, ok := h.Metrics[m]; ok {
				names[m] = true
			}
		}
	}
	sort.Ints(ids)
	metrics := make([]string, 0, len(names))
	for m := range names {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)

	n := len(ids)
	fmt.Printf("\n%s: %d pairs\n", workload, n)
	fmt.Printf("%-14s %12s %10s %12s %10s %9s %6s  %s\n",
		"metric", "base median", "base IQR", "head median", "head IQR", "delta", "wins", "verdict")
	for _, m := range metrics {
		var b, h []float64
		wins, losses := 0, 0
		for _, id := range ids {
			bv, hv := p.base[id].Metrics[m].Value, p.head[id].Metrics[m].Value
			b, h = append(b, bv), append(h, hv)
			switch gain := hv - bv; {
			case higher[m] && gain > 0, !higher[m] && gain < 0:
				wins++
			case gain != 0:
				losses++
			}
		}
		bMed, bIQR := median(b), iqr(b)
		hMed, hIQR := median(h), iqr(h)
		delta := hMed - bMed
		improve := delta
		if !higher[m] {
			improve = -delta
		}
		lim, bounded := bound[m]
		verdict := "flat"
		switch {
		case 10*wins >= 9*n && improve > bIQR:
			verdict = "better"
		case 10*losses >= 9*n && -improve > bIQR:
			verdict = "worse"
		case bounded && max(bIQR, hIQR) > lim*math.Abs(bMed) && !separated(b, h, higher[m]):
			verdict = "unresolved"
		}
		if bounded && bMed != 0 && -improve/math.Abs(bMed) > lim {
			verdict += fmt.Sprintf(" (beyond the %.0f%% bound)", 100*lim)
		}
		fmt.Printf("%-14s %12.4g %10.3g %12.4g %10.3g %+8.1f%% %3d/%-2d  %s\n",
			m, bMed, bIQR, hMed, hIQR, 100*delta/bMed, wins, n, verdict)
	}
}

// separated reports whether every head run beats every base run.
func separated(base, head []float64, higher bool) bool {
	if higher {
		return slices.Min(head) > slices.Max(base)
	}
	return slices.Max(head) < slices.Min(base)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "abstat: "+format+"\n", args...)
	os.Exit(2)
}
