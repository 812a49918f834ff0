package kv

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// sortMerge is the compaction merge unionKeys replaces: concatenate the
// runs, sort.Slice, drop duplicates.
func sortMerge(runs [][]int64) []int64 {
	var merged []int64
	for _, r := range runs {
		merged = append(merged, r...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	uniq := merged[:0]
	for i, k := range merged {
		if i == 0 || k != merged[i-1] {
			uniq = append(uniq, k)
		}
	}
	return uniq
}

// randomRun draws a sorted run of distinct keys from [0, space): a small
// space makes keys repeat across runs, as overlapping tables do.
func randomRun(rng *sim.RNG, space int) []int64 {
	var run []int64
	for k := 0; k < space; k++ {
		if rng.Intn(3) == 0 {
			run = append(run, int64(k))
		}
	}
	return run
}

func TestUnionKeysMatchesSortMerge(t *testing.T) {
	rng := sim.NewRNG(16)
	var buf []int64
	for trial := 0; trial < 400; trial++ {
		runs := make([][]int64, 1+rng.Intn(12))
		tables := make([]*sstable, len(runs))
		for i := range runs {
			if rng.Intn(8) > 0 { // some inputs are empty
				runs[i] = randomRun(rng, 1+rng.Intn(300))
			}
			tables[i] = &sstable{keys: slices.Clone(runs[i])}
		}
		buf = unionKeys(buf[:0], tables) // buf reused across trials
		if want := sortMerge(runs); !slices.Equal(buf, want) {
			t.Fatalf("trial %d: merged %v, want %v", trial, buf, want)
		}
		for i, r := range runs {
			if !slices.Equal(tables[i].keys, r) {
				t.Fatalf("trial %d: merge modified input run %d", trial, i)
			}
		}
	}
}
